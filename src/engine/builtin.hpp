// Built-in scenarios: the paper's figure sweeps and worked examples,
// migrated from standalone bench/example mains into registry entries.
#pragma once

namespace bnf {

/// Register fig2, fig3, price-of-stability, sampler-validation and
/// quickstart into scenario_registry::global(). Idempotent — safe to call
/// from every entry point (CLI, examples/quickstart, tests).
void register_builtin_scenarios();

}  // namespace bnf
