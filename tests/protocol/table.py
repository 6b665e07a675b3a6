"""A dict-backed stand-in for the KV table a control record lives in.

Every control-record write is one closure ``item -> (new item or None,
outcome)`` that reads the clock inside itself (``core/locks.py``), so
the real closures run unchanged against this table.  ``update_item``
and ``get_item`` answer at once: a request such as
``ReplicationLockManager.done`` is its own answer, and :func:`run`
drives a closure-driven process to its return value with no simulator.
Items are copied in and out, as ``KvTable`` copies them, and
:meth:`FakeTable.frozen` gives the hashable state a search keeps.
"""

from types import SimpleNamespace


class FakeTable:
    """``sim.now``, ``update_item``, ``get_item`` and ``peek_prefix``
    over a dict."""

    def __init__(self, frozen: tuple = ()):
        self.sim = SimpleNamespace(now=0.0)
        self.items = {key: dict(item) for key, item in frozen}

    def update_item(self, key: str, fn):
        """Apply ``fn`` atomically; answer with its outcome."""
        item = self.items.get(key)
        new, outcome = fn(None if item is None else dict(item))
        if new is None:
            self.items.pop(key, None)
        else:
            self.items[key] = dict(new)
        return outcome

    def get_item(self, key: str):
        item = self.items.get(key)
        return None if item is None else dict(item)

    def peek_prefix(self, prefix: str):
        for key in sorted(self.items):
            if key.startswith(prefix):
                yield key, dict(self.items[key])

    def frozen(self) -> tuple:
        return tuple(sorted((key, tuple(sorted(item.items())))
                            for key, item in self.items.items()))


def run(process):
    """Drive a process that yields table requests — answered at once,
    so each yields its own answer — to its return value."""
    answer = None
    try:
        while True:
            answer = process.send(answer)
    except StopIteration as stop:
        return stop.value
