// Package lib declares one exported name of each kind the check judges.
package lib

// T implements fmt.Stringer and Doer.
type T struct{}

// Used is called by main.
func Used() T { return T{} }

// Unused is called by nothing.
func Unused() {}

// Oracle is called by nothing but is allowlisted.
func Oracle() {}

// ByCaller is called only by the caller module.
func ByCaller() {}

func (T) String() string { return "t" }

// Do implements Doer.
func (T) Do() {}

// Doer is called through its interface.
type Doer interface{ Do() }

// Dispatch calls d.Do.
func Dispatch(d Doer) { d.Do() }

// Options holds one field main sets, one it only reads, one the knob
// ledger names and one nothing references.
type Options struct {
	Set    int
	Unset  int
	Knob   int
	Unused int
}
