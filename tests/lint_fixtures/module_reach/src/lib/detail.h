#ifndef LIB_DETAIL_H_
#define LIB_DETAIL_H_

// Reached only through reached.cc: the scan follows a reached header's
// paired .cc.
inline int Detail() { return 41; }

#endif  // LIB_DETAIL_H_
