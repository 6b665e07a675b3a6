"""Table 4: predicted vs measured replication time (mean ± std) for a
1 GB object with 32 function instances across six directed region
pairs.

Paper reference: the model tends to overestimate but reflects the
relative performance of strategies and captures the variance
differences across cases (e.g. GCP europe-west6 ↔ Azure westus2 is far
slower and far noisier than anything touching AWS us-east-1).
"""

import itertools

import numpy as np

from benchmarks._helpers import GB, build_service
from benchmarks.conftest import run_once, scaled
from repro.simcloud.objectstore import Blob

REGIONS = ["aws:us-east-1", "azure:westus2", "gcp:europe-west6"]
N = 32
#: Probe instances per path.  Four of the six pairs predict within
#: ~15 % of each other (9-12 s), and at the helper's default of 8 probes
#: one pair's prediction scatters 9.9-14.1 s across seeds (instance
#: bandwidth is that variable on Azure and GCP) — wider than the gaps
#: the rank assertion below compares.  32 probes hold it to ~±1 s.
PROFILE_SAMPLES = 32


def _measure_pair(src_key, dst_key, runs, seed):
    cloud, service, src, dst, rule = build_service(
        src_key, dst_key, seed=seed, profile_samples=PROFILE_SAMPLES)
    rule.engine.forced_plan = (N, src_key)
    keepalive = cloud.faas(src_key).profile.keepalive_s
    actual = []
    for i in range(runs):
        src.put_object(f"o{i}", Blob.fresh(GB), cloud.now)
        cloud.run()
        actual.append(service.records[-1].replication_seconds)
        cloud.sim.run(until=cloud.now + keepalive + 1.0)
    predicted = service.model.predict_stats((src_key, src_key, dst_key), GB, N)
    return predicted, (float(np.mean(actual)), float(np.std(actual)))


def test_table4_predicted_vs_measured(benchmark, save_result):
    runs = scaled(12)

    def run():
        out = {}
        for i, (src_key, dst_key) in enumerate(
                itertools.permutations(REGIONS, 2)):
            out[(src_key, dst_key)] = _measure_pair(src_key, dst_key, runs,
                                                    seed=40 + i)
        return out

    out = run_once(benchmark, run)

    paper = {
        ("aws:us-east-1", "azure:westus2"): (7.01, 5.90),
        ("aws:us-east-1", "gcp:europe-west6"): (9.21, 7.08),
        ("azure:westus2", "aws:us-east-1"): (7.22, 5.99),
        ("azure:westus2", "gcp:europe-west6"): (17.87, 12.06),
        ("gcp:europe-west6", "aws:us-east-1"): (16.54, 12.47),
        ("gcp:europe-west6", "azure:westus2"): (72.73, 62.89),
    }
    lines = ["Table 4: predicted vs measured replication time "
             f"(1 GB, n={N}, mean ± std seconds)", ""]
    lines.append(f"{'pair':<44} {'predicted':>16} {'measured':>16} "
                 f"{'paper pred/meas':>18}")
    for pair, ((p_mean, p_std), (m_mean, m_std)) in out.items():
        ref = paper[pair]
        lines.append(f"{pair[0] + ' -> ' + pair[1]:<44} "
                     f"{p_mean:7.1f}±{p_std:<5.1f} "
                     f"{m_mean:9.1f}±{m_std:<5.1f} "
                     f"{ref[0]:8.1f}/{ref[1]:.1f}")
    save_result("tab4_model_accuracy", "\n".join(lines))

    overestimates = 0
    for pair, ((p_mean, p_std), (m_mean, m_std)) in out.items():
        # Location tracked within a factor ~2.
        assert 0.5 < p_mean / m_mean < 2.2, pair
        if p_mean >= m_mean:
            overestimates += 1
    # The paper: "our performance model tends to overestimate ... in
    # general" — the majority of pairs, not necessarily all.
    assert overestimates >= 3
    # Relative ordering: the slowest measured pair ranks among the two
    # slowest predicted pairs (what plan comparison depends on).
    slowest_measured = max(out, key=lambda p: out[p][1][0])
    by_predicted = sorted(out, key=lambda p: -out[p][0][0])
    assert slowest_measured in by_predicted[:2]
