package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"orchestra/internal/codec"
	"orchestra/internal/provenance"
)

// provBytes assembles an appendProv value from uvarints (int or uint64) and
// length-prefixed variable names (string).
func provBytes(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			b = binary.AppendUvarint(b, uint64(p))
		case uint64:
			b = binary.AppendUvarint(b, p)
		case string:
			b = binary.AppendUvarint(b, uint64(len(p)))
			b = append(b, p...)
		}
	}
	return b
}

// decodeProv reads data as one whole appendProv value, as an engine blob's
// reader meets it.
func (d *provDecoder) decodeProv(data []byte) (provenance.Poly, error) {
	r := codec.NewReader(data, ErrBadEngineBlob)
	p := d.read(r)
	return p, r.Done()
}

// TestDecodeProvSlots pins the reading of appendProv's coefficient and power
// slots: any coefficient from 1 up is presence — a value written while the
// instance summed re-inserts holds 2 — and a power other than 1, which no
// witness set has, is refused. Everything else a value could break is
// refused with ErrBadEngineBlob too.
func TestDecodeProvSlots(t *testing.T) {
	x := provenance.NewVar("a:1/0")
	if enc := appendProv(nil, x); !bytes.Equal(enc, provBytes(1, 1, 1, "a:1/0", 1)) {
		t.Fatalf("appendProv(x) = %x, want 1 in the coefficient and power slots", enc)
	}
	var pd provDecoder
	for _, coef := range []uint64{1, 2, 1 << 40} {
		got, err := pd.decodeProv(provBytes(1, coef, 1, "a:1/0", 1))
		if err != nil || !got.Equal(x) {
			t.Errorf("coefficient %d: decode = %v, %v; want %v", coef, got, err, x)
		}
	}
	for name, data := range map[string][]byte{
		"power 2":             provBytes(1, 1, 1, "a:1/0", 2),
		"power 0":             provBytes(1, 1, 1, "a:1/0", 0),
		"zero coefficient":    provBytes(1, 0, 1, "a:1/0", 1),
		"truncated":           provBytes(1, 1, 1, "a:1/0"),
		"trailing bytes":      append(provBytes(1, 1, 1, "a:1/0", 1), 0),
		"monomial count 2^62": provBytes(uint64(1 << 62)),
		"var count 2^62":      provBytes(1, 1, uint64(1<<62)),
		"vars out of order":   provBytes(1, 1, 2, "b", 1, "a", 1),
		"repeated monomial":   provBytes(2, 1, 1, "a", 1, 1, 1, "a", 1),
	} {
		if _, err := pd.decodeProv(data); !errors.Is(err, ErrBadEngineBlob) {
			t.Errorf("%s: decode = %v, want ErrBadEngineBlob", name, err)
		}
	}
}

// FuzzDecodeProv: whatever bytes an engine blob holds as an update's
// annotation, provDecoder.read refuses them with ErrBadEngineBlob or decodes
// a polynomial whose appendProv bytes decode to it again, and never panics.
func FuzzDecodeProv(f *testing.F) {
	x, y, z := provenance.NewVar("a:1/0"), provenance.NewVar("b:2/1"), provenance.NewVar("M_AC")
	for _, p := range []provenance.Poly{provenance.Zero(), provenance.One(), x, x.Mul(y).Add(z).Add(provenance.One())} {
		f.Add(appendProv(nil, p))
	}
	f.Add(provBytes(2, 1, 0, 2, 1, "a:1/0", 1))
	f.Add(provBytes(1, 1, 1, "a:1/0", 2))
	f.Add(provBytes(uint64(1 << 62)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var pd provDecoder
		p, err := pd.decodeProv(data)
		if err != nil {
			if !errors.Is(err, ErrBadEngineBlob) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		back, err := pd.decodeProv(appendProv(nil, p))
		if err != nil {
			t.Fatalf("decode refuses appendProv(%v): %v", p, err)
		}
		if !back.Equal(p) {
			t.Fatalf("re-encoding changed the polynomial: %v vs %v", p, back)
		}
	})
}
