"""Analysis helpers: statistics and table formatting."""
