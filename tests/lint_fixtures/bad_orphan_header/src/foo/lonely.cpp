#include "foo/lonely.h"

namespace fixture {

int lonely() { return 1; }

}  // namespace fixture
