"""The generic :class:`~repro.utils.registry.Registry`: one policy for
models, boards and rulesets alike."""

import copy
import json

import pytest

from repro.rules import BUILTIN_RESOURCES, RuleRegistry
from repro.rules.registry import ruleset_summary
from repro.utils.errors import WorkloadConflictError
from repro.workloads import WorkloadRegistry
from repro.workloads.registry import model_summary

#: kind -> (fresh registry, a built-in name, its source, edit(definition, name)).
KINDS = {
    "model": (
        lambda: WorkloadRegistry().models,
        "squeezenet",
        "zoo",
        lambda definition, name: {**definition, "name": name},
    ),
    "board": (
        lambda: WorkloadRegistry().boards,
        "zc706",
        "paper",
        lambda definition, name: {
            **definition, "name": name, "dsp_count": definition["dsp_count"] + 1
        },
    ),
    "ruleset": (
        RuleRegistry,
        BUILTIN_RESOURCES,
        "builtin",
        lambda definition, name: {**definition, "name": name, "description": "edited"},
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestOnePolicy:
    def test_identical_builtin_reregistration_is_a_noop(self, kind):
        make, builtin, _source, _edit = KINDS[kind]
        registry = make()
        generation = registry.generation
        definition = copy.deepcopy(registry.entry(builtin).definition)
        assert registry.register(definition, name=builtin) == builtin
        assert registry.generation == generation
        assert registry.entry(builtin).builtin

    def test_edited_builtin_conflicts_even_with_replace(self, kind):
        make, builtin, _source, edit = KINDS[kind]
        registry = make()
        edited = edit(registry.entry(builtin).definition, builtin)
        with pytest.raises(WorkloadConflictError, match="reserved"):
            registry.register(edited, name=builtin, replace=True)

    def test_entry_record(self, kind):
        make, builtin, source, _edit = KINDS[kind]
        registry = make()
        entry = registry.entry(f"  {builtin.upper()} ")
        assert (entry.name, entry.builtin, entry.source) == (builtin, True, source)
        assert registry.get(builtin) is entry.value
        assert registry.canonical(builtin.upper()) == builtin
        assert builtin in registry and "nope" not in registry


def test_catalog_entries_keep_their_wire_order():
    entry = WorkloadRegistry().models.entry("squeezenet")
    assert list(model_summary(entry)) == [
        "name", "display_name", "conv_layers", "gmacs", "weights_millions", "custom"
    ]
    assert list(ruleset_summary(RuleRegistry().entry(BUILTIN_RESOURCES))) == [
        "name", "description", "rule_count", "custom", "definition"
    ]


def test_cli_rules_listing_names_source_before_definition(capsys):
    from repro.cli import main

    assert main(["rules", "list", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)["rulesets"]
    entry = next(item for item in listing if item["name"] == BUILTIN_RESOURCES)
    assert list(entry) == [
        "name", "description", "rule_count", "custom", "source", "definition"
    ]
