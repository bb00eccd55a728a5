// Command fixture is the module the dead-surface check's own tests run
// on: main and caller/ reference part of internal/lib, tests none of it.
// WithKnob and WithUnset stand for root options nothing calls; the knob
// ledger the tests pass names Knob only.
package main

import "fixture/internal/lib"

func main() {
	o := lib.Options{Set: 1}
	_ = o.Unset + o.Knob
	lib.Dispatch(lib.Used())
}

// WithKnob is an option the knob ledger names.
func WithKnob() {}

// WithUnset is an option nothing sets and the ledger does not name.
func WithUnset() {}
