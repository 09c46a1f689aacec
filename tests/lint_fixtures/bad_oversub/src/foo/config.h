// Golden bad snippet: a raw oversubscription literal at a
// configuration boundary must trip the `oversub` rule (the factor has
// to flow through net::Oversub() so f >= 1 is validated).
// fastpr-lint: allow(orphan-header) — this tree tests the oversub rule
// only.
#pragma once

namespace fixture {

struct FabricConfig {
  double oversubscription = 4.0;  // fastpr_lint must flag this line
};

}  // namespace fixture
