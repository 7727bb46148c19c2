from .sweep import (
    SweepConfig,
    regime_switch_demo,
    run_sweep,
    scan_interference,
    write_csv,
)

__all__ = ["SweepConfig", "run_sweep", "scan_interference", "regime_switch_demo",
           "write_csv"]
