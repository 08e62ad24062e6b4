#ifndef LIB_REACHED_H_
#define LIB_REACHED_H_

int Reached();

#endif  // LIB_REACHED_H_
