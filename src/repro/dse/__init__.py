"""Design-space exploration of custom multiple-CE accelerators (Use case 3).

Each re-exported name loads its submodule on first use, so importing one
submodule (``repro.dse.space`` for the design mix, say) loads only it.
"""

from repro.utils.lazy import lazy_exports

#: Strategy names accepted by :func:`make_strategy` (and the CLI/campaign).
#: Defined here so the CLI's parser can offer them without loading a search.
STRATEGY_NAMES = ("random", "guided", "evolve")

__getattr__ = lazy_exports(
    __name__,
    {
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
        "repro.dse.sampler": ("DesignEvaluator", "SampleStats", "sample_space"),
        "repro.dse.search": (
            "EvolutionStrategy",
            "GuidedStrategy",
            "RandomStrategy",
            "SearchResult",
            "Strategy",
            "guided_search",
            "local_search",
            "make_strategy",
            "random_search",
        ),
        "repro.dse.space": ("CustomDesign", "CustomDesignSpace"),
    },
)

__all__ = [
    "Objective",
    "matches_throughput",
    "throughput_at_most_cost",
    "DesignEvaluator",
    "SampleStats",
    "sample_space",
    "SearchResult",
    "Strategy",
    "STRATEGY_NAMES",
    "RandomStrategy",
    "GuidedStrategy",
    "EvolutionStrategy",
    "make_strategy",
    "guided_search",
    "local_search",
    "random_search",
    "EvolutionConfig",
    "EvolutionEngine",
    "Campaign",
    "CampaignCell",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "ParetoArchive",
    "run_campaign",
    "resume_campaign",
    "campaign_status",
    "CustomDesign",
    "CustomDesignSpace",
]
