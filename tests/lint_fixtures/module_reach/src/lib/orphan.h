#ifndef LIB_ORPHAN_H_
#define LIB_ORPHAN_H_

// The one finding: no shipped source includes this header. The linter's
// own sources and commented-out includes do not count.
int Orphan();

#endif  // LIB_ORPHAN_H_
