package schema

import (
	"fmt"
	"sync"
	"testing"
)

// encodeDirect is the reference encoding.
func encodeDirect(t Tuple) string { return string(t.AppendKeyTo(nil)) }

func TestMemoizedKeyMatchesDirectEncoding(t *testing.T) {
	tuples := []Tuple{
		{},
		NewTuple(String("a")),
		NewTuple(String("ab"), String("c")),
		NewTuple(String("a"), String("bc")), // same bytes, different grouping
		NewTuple(Int(42), Bool(true), Float(3.25)),
		NewTuple(LabeledNull("f(x,1)"), Int(-7)),
		NewTuple(String(""), String("")),
	}
	for i := 0; i < 64; i++ {
		tuples = append(tuples, NewTuple(String(fmt.Sprintf("gene-%d", i)), Int(int64(i))))
	}
	for _, tu := range tuples {
		want := encodeDirect(tu)
		if got := tu.Key(); got != want {
			t.Fatalf("Key(%v) = %q, want %q", tu, got, want)
		}
		// A fresh, equal slice encodes identically.
		if got := tu.Clone().Key(); got != want {
			t.Fatalf("cloned Key(%v) = %q, want %q", tu, got, want)
		}
	}
}

func TestMemoizedKeyDistinguishesGroupings(t *testing.T) {
	a := NewTuple(String("ab"), String("c"))
	b := NewTuple(String("a"), String("bc"))
	if a.Key() == b.Key() {
		t.Fatalf("distinct tuples share key %q", a.Key())
	}
}

func TestMemoizedKeyConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tu := NewTuple(String(fmt.Sprintf("k%d", i%37)), Int(int64(i%11)))
				if got, want := tu.Key(), encodeDirect(tu); got != want {
					t.Errorf("goroutine %d: Key = %q, want %q", g, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
