"""Long-horizon soak harness: geo-scale campaigns judged by availability SLOs."""

from repro.soak.campaign import campaign_horizon, generate_campaign
from repro.soak.runner import SoakReport, SoakSLO, run_soak

__all__ = [
    "campaign_horizon",
    "generate_campaign",
    "SoakReport",
    "SoakSLO",
    "run_soak",
]
