// Command caller stands for a separate module, such as a benchmark, whose
// non-test code counts as a caller.
package main

import "fixture/internal/lib"

func main() { lib.ByCaller() }
