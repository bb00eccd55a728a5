package provenance

import (
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// Token is the in-memory id of a provenance token: a dense index into the
// process-wide token table, minted the first time its name (a Var) is seen.
// Monomials are sets of Tokens, so the annotation kernel moves integers
// instead of strings and stored annotations hold no pointer per variable.
//
// Ids exist only in memory. A recovered process mints them in a different
// order, so no id is ever persisted, sent, or compared for order: canonical
// order is defined on names (see cmpName and cmpMono), and every codec
// writes names. Ids are never reused.
type Token uint32

// The token table maps names to ids and back. It is process-wide rather
// than per-system because the intern cache is: two systems' equal-id nodes
// must mean the same thing wherever they meet in it. Reading a name from an
// id is lock-free — the names live in chunks that never move, chunk c
// holding tokChunk0<<c of them, published by the atomic length — and
// minting takes the lock.
const (
	tokChunkBits = 10
	tokChunk0    = 1 << tokChunkBits
	tokChunks    = 33 - tokChunkBits // enough chunks for every uint32 id
)

var tokens struct {
	mu     sync.Mutex
	ids    map[Var]Token
	chunks [tokChunks]atomic.Pointer[[]Var]
	n      atomic.Uint32
}

// tokSlot locates id t: its chunk and its offset within it.
func tokSlot(t uint32) (chunk int, off uint64) {
	x := uint64(t) + tokChunk0
	chunk = bits.Len64(x) - 1 - tokChunkBits
	return chunk, x - tokChunk0<<chunk
}

// Mint returns the id of token x, minting it on first sight.
func Mint(x Var) Token {
	tokens.mu.Lock()
	defer tokens.mu.Unlock()
	if t, ok := tokens.ids[x]; ok {
		return t
	}
	n := tokens.n.Load()
	if n == math.MaxUint32 {
		panic("provenance: token table full")
	}
	if tokens.ids == nil {
		tokens.ids = map[Var]Token{}
	}
	// The table keeps its own copy, so it never pins the buffer a decoder
	// sliced the name from.
	x = Var(strings.Clone(string(x)))
	c, off := tokSlot(n)
	chunk := tokens.chunks[c].Load()
	if chunk == nil {
		s := make([]Var, tokChunk0<<c)
		chunk = &s
		tokens.chunks[c].Store(chunk)
	}
	(*chunk)[off] = x
	tokens.ids[x] = Token(n)
	tokens.n.Store(n + 1)
	return Token(n)
}

// Var returns the token's name.
func (t Token) Var() Var {
	if uint32(t) >= tokens.n.Load() {
		panic("provenance: token was never minted")
	}
	c, off := tokSlot(uint32(t))
	return (*tokens.chunks[c].Load())[off]
}

// NumTokens returns the size of the token table: every token minted so far
// in this process. It only grows.
func NumTokens() int { return int(tokens.n.Load()) }

// cmpName orders two tokens by name.
func cmpName(a, b Token) int {
	if a == b {
		return 0
	}
	x, y := string(a.Var()), string(b.Var())
	if l := diffAt(x, y); l < len(x) && l < len(y) {
		return cmpByte(x[l], y[l])
	}
	return len(x) - len(y)
}

// diffAt returns the first index at which x and y differ, or the length of
// the shorter. Names are short, so a byte loop beats strings.Compare's call.
func diffAt(x, y string) int {
	n := min(len(x), len(y))
	for l := 0; l < n; l++ {
		if x[l] != y[l] {
			return l
		}
	}
	return n
}

// cmpMono is the canonical order of monomials: the byte order of their
// keys, a key being each variable's name followed by ';' — so "x:1/23;"
// sorts before "x:1/2;". Names that hold ';' can give two monomials one
// key; those are ordered by their name lists. Equal ids spell equal bytes,
// so the walk skips them and reads names only where the monomials first
// differ; only a name holding ';' there takes the slow path that spells the
// keys out.
func cmpMono(a, b Monomial) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	switch {
	case i == len(a) && i == len(b):
		return 0
	case i == len(a):
		return -1
	case i == len(b):
		return 1
	}
	x, y := string(a[i].Var()), string(b[i].Var())
	// The names differ at a byte both keys hold, or one is a prefix of the
	// other and the shorter one's key goes on with ';'.
	switch l := diffAt(x, y); {
	case l < len(x) && l < len(y):
		return cmpByte(x[l], y[l])
	case len(x) < len(y) && y[l] != ';':
		return cmpByte(';', y[l])
	case len(y) < len(x) && x[l] != ';':
		return cmpByte(x[l], ';')
	}
	if c := strings.Compare(monoKey(a[i:]), monoKey(b[i:])); c != 0 {
		return c
	}
	return strings.Compare(x, y)
}

func cmpByte(a, b byte) int {
	if a < b {
		return -1
	}
	return 1
}

// monoKey spells out m's key: each name followed by ';'.
func monoKey(m Monomial) string {
	var b strings.Builder
	for _, x := range m {
		b.WriteString(string(x.Var()))
		b.WriteByte(';')
	}
	return b.String()
}
