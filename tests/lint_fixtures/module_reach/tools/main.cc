#include "lib/reached.h"
// #include "lib/orphan.h"

int main() { return Reached() == 42 ? 0 : 1; }
