// Golden bad snippet: a src/ header that only its own .cpp includes
// must trip the `orphan-header` rule.
#pragma once

namespace fixture {

int lonely();

}  // namespace fixture
