"""Long-horizon soak harness: geo-scale campaigns judged by availability SLOs."""

from repro.soak.campaign import campaign_horizon, generate_campaign
from repro.soak.runner import (
    SoakReport,
    SoakSLO,
    is_soak_artifact,
    load_soak_artifact,
    run_soak,
    write_soak_artifact,
)

__all__ = [
    "campaign_horizon",
    "generate_campaign",
    "SoakReport",
    "SoakSLO",
    "is_soak_artifact",
    "load_soak_artifact",
    "run_soak",
    "write_soak_artifact",
]
