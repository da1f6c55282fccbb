"""The benchmark's workloads, by name.

Each module provides ``NAME``, ``setup(seed)`` (input generation and
warm-up), ``one_pass(state, runner)`` (the timed operations),
``fingerprint(outputs)`` and ``match_pin`` (compared across passes and
against bench/pins.json), ``check(state, outputs)`` (independent output
gates) and ``layer_metrics(...)`` (per-layer figures from the spans); some
add ``traced_extras(state, runner)`` for figures measured outside the
timed region of a traced run, returned with the problems their outputs
show.
"""

from . import cli, fuzz_mix, large_graph, shapley_table

WORKLOADS = {m.NAME: m for m in (fuzz_mix, shapley_table, large_graph, cli)}
