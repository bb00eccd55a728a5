package recon

import (
	"bytes"
	"errors"
	"testing"

	"orchestra/internal/codec"
)

// TestAppendStateAllocsIndependentOfHistory pins that writing the trust
// section allocates per section, not per node: into a warm buffer, a state
// with 8k closed transactions and the open set of historyState costs as
// many allocations as one with 1k.
func TestAppendStateAllocsIndependentOfHistory(t *testing.T) {
	allocs := func(n int) float64 {
		s, _ := historyState(t, n)
		buf := s.AppendState(nil)
		return testing.AllocsPerRun(20, func() { buf = s.AppendState(buf[:0]) })
	}
	small, large := allocs(1<<10), allocs(1<<13)
	t.Logf("AppendState allocations: %v at 1k nodes, %v at 8k", small, large)
	if small != large {
		t.Fatalf("AppendState allocates %v times at 1k nodes and %v at 8k: something is allocated per node", small, large)
	}
}

// TestReadStateLeavesStateOnError: a section ReadState refuses — here cut
// short at every length — leaves the state as it was.
func TestReadStateLeavesStateOnError(t *testing.T) {
	s, _ := historyState(t, 64)
	sec := s.AppendState(nil)
	for cut := range len(sec) {
		if err := s.ReadState(codec.NewReader(sec[:cut], errBadSection), anyUpdate); !errors.Is(err, errBadSection) {
			t.Fatalf("section cut at %d of %d bytes: ReadState = %v, want errBadSection", cut, len(sec), err)
		}
		if after := s.AppendState(nil); !bytes.Equal(after, sec) {
			t.Fatalf("a section cut at %d of %d bytes changed the state", cut, len(sec))
		}
	}
}
