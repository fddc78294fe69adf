"""Design-space exploration of custom multiple-CE accelerators (Use case 3).

Each re-exported name loads its submodule on first use, so importing one
submodule (``repro.dse.space`` for the design mix, say) loads only it.
"""

from repro.utils.lazy import lazy_exports

#: Strategy names accepted by :func:`run_search` (and the CLI/campaign).
#: Defined here so the CLI's parser can offer them without loading a search.
STRATEGY_NAMES = ("random", "guided", "evolve")

_EXPORTS = {
    "repro.dse.campaign": (
        "Campaign",
        "CampaignCell",
        "CampaignError",
        "CampaignResult",
        "CampaignSpec",
        "ParetoArchive",
        "campaign_status",
        "resume_campaign",
        "run_campaign",
    ),
    "repro.dse.evolve": ("EvolutionConfig", "EvolutionEngine"),
    "repro.dse.objectives": (
        "Objective",
        "matches_throughput",
        "throughput_at_most_cost",
    ),
    "repro.dse.sampler": ("SampleStats", "sample_space"),
    "repro.dse.search": (
        "SearchResult",
        "evolve_search",
        "guided_search",
        "local_search",
        "random_search",
        "run_search",
    ),
    "repro.dse.space": ("CustomDesign", "CustomDesignSpace"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["STRATEGY_NAMES", *(name for names in _EXPORTS.values() for name in names)]
