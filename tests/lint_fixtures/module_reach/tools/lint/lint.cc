#include "lib/orphan.h"

int Lint() { return Orphan(); }
