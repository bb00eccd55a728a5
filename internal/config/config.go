// Package config parses the textual CDSS configuration format: peers with
// schemas, mappings (identity shorthands or tgd text), and per-peer trust
// policies. It is what lets an ORCHESTRA confederation be described in a
// file instead of Go code:
//
//	peer alaska {
//	    relation O(org string, oid int) key(oid)
//	    relation P(prot string, pid int) key(pid)
//	    relation S(oid int, pid int, seq string) key(oid, pid)
//	}
//	peer beijing like alaska
//	peer crete {
//	    relation OPS(org string, prot string, seq string) key(org, prot)
//	}
//	peer dresden like crete
//
//	mapping identity M_AB alaska beijing
//	mapping identity M_BA beijing alaska
//	mapping M_AC = crete.OPS(org, prot, seq) :-
//	    alaska.O(org, oid), alaska.P(prot, pid), alaska.S(oid, pid, seq).
//
//	trust crete {
//	    peer beijing 2
//	    peer dresden 1
//	    default 0
//	}
//
// Lines starting with # are comments. Unlisted peers default to trusting
// everything at priority 1.
package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"orchestra/internal/mapping"
	"orchestra/internal/parser"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
)

// Config is a parsed CDSS description.
type Config struct {
	Peers    map[string]*schema.Schema
	Mappings []*mapping.Mapping
	Policies map[string]*recon.Policy
}

// Parse reads a configuration.
func Parse(r io.Reader) (*Config, error) {
	cfg := &Config{
		Peers:    map[string]*schema.Schema{},
		Policies: map[string]*recon.Policy{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	ln := 0
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for ln < len(lines) {
		line := strings.TrimSpace(lines[ln])
		ln++
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "peer":
			var err error
			ln, err = cfg.parsePeer(lines, ln-1)
			if err != nil {
				return nil, err
			}
		case "mapping":
			var err error
			ln, err = cfg.parseMapping(lines, ln-1)
			if err != nil {
				return nil, err
			}
		case "trust":
			var err error
			ln, err = cfg.parseTrust(lines, ln-1)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("config: line %d: unknown directive %q", ln, fields[0])
		}
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("config: no peers declared")
	}
	return cfg, nil
}

// parsePeer handles "peer NAME { ... }" and "peer NAME like OTHER".
func (cfg *Config) parsePeer(lines []string, i int) (int, error) {
	line := strings.TrimSpace(lines[i])
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, fmt.Errorf("config: line %d: peer needs a name", i+1)
	}
	name := fields[1]
	if _, dup := cfg.Peers[name]; dup {
		return 0, fmt.Errorf("config: line %d: duplicate peer %s", i+1, name)
	}
	// "peer b like a": share a's schema object.
	if len(fields) == 4 && fields[2] == "like" {
		other, ok := cfg.Peers[fields[3]]
		if !ok {
			return 0, fmt.Errorf("config: line %d: peer %s declared before %s", i+1, fields[3], name)
		}
		cfg.Peers[name] = other
		return i + 1, nil
	}
	if len(fields) != 3 || fields[2] != "{" {
		return 0, fmt.Errorf("config: line %d: expected 'peer %s {' or 'peer %s like OTHER'", i+1, name, name)
	}
	s := schema.NewSchema(name)
	i++
	for ; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "}" {
			cfg.Peers[name] = s
			return i + 1, nil
		}
		rel, err := parseRelationDecl(line, i+1)
		if err != nil {
			return 0, err
		}
		if err := s.AddRelation(rel); err != nil {
			return 0, fmt.Errorf("config: line %d: %v", i+1, err)
		}
	}
	return 0, fmt.Errorf("config: peer %s: missing closing '}'", name)
}

// parseRelationDecl parses: relation R(a type, b type, ...) key(a, b)
func parseRelationDecl(line string, lineNo int) (*schema.Relation, error) {
	if !strings.HasPrefix(line, "relation ") {
		return nil, fmt.Errorf("config: line %d: expected relation declaration, got %q", lineNo, line)
	}
	rest := strings.TrimSpace(strings.TrimPrefix(line, "relation "))
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return nil, fmt.Errorf("config: line %d: relation needs attributes", lineNo)
	}
	name := strings.TrimSpace(rest[:open])
	close1 := strings.IndexByte(rest, ')')
	if close1 < 0 {
		return nil, fmt.Errorf("config: line %d: missing ')'", lineNo)
	}
	var attrs []schema.Attribute
	for _, part := range strings.Split(rest[open+1:close1], ",") {
		kv := strings.Fields(strings.TrimSpace(part))
		if len(kv) != 2 {
			return nil, fmt.Errorf("config: line %d: attribute needs 'name type', got %q", lineNo, part)
		}
		var kind schema.Kind
		switch kv[1] {
		case "string":
			kind = schema.KindString
		case "int":
			kind = schema.KindInt
		case "float":
			kind = schema.KindFloat
		case "bool":
			kind = schema.KindBool
		default:
			return nil, fmt.Errorf("config: line %d: unknown type %q", lineNo, kv[1])
		}
		attrs = append(attrs, schema.Attribute{Name: kv[0], Type: kind})
	}
	var keyCols []string
	tail := strings.TrimSpace(rest[close1+1:])
	if tail != "" {
		if !strings.HasPrefix(tail, "key(") || !strings.HasSuffix(tail, ")") {
			return nil, fmt.Errorf("config: line %d: expected key(...), got %q", lineNo, tail)
		}
		for _, k := range strings.Split(tail[4:len(tail)-1], ",") {
			keyCols = append(keyCols, strings.TrimSpace(k))
		}
	}
	return schema.NewRelation(name, attrs, keyCols...)
}

// parseMapping handles "mapping identity ID SRC DST" and
// "mapping ID = tgd-text... ." (the tgd may span lines until a period).
func (cfg *Config) parseMapping(lines []string, i int) (int, error) {
	line := strings.TrimSpace(lines[i])
	fields := strings.Fields(line)
	if len(fields) >= 2 && fields[1] == "identity" {
		if len(fields) != 5 {
			return 0, fmt.Errorf("config: line %d: usage: mapping identity ID SRC DST", i+1)
		}
		id, src, dst := fields[2], fields[3], fields[4]
		s, ok := cfg.Peers[src]
		if !ok {
			return 0, fmt.Errorf("config: line %d: unknown peer %s", i+1, src)
		}
		if _, ok := cfg.Peers[dst]; !ok {
			return 0, fmt.Errorf("config: line %d: unknown peer %s", i+1, dst)
		}
		cfg.Mappings = append(cfg.Mappings, mapping.Identity(id, src, dst, s)...)
		return i + 1, nil
	}
	// mapping ID = <tgd ...>.
	eq := strings.IndexByte(line, '=')
	if len(fields) < 3 || eq < 0 {
		return 0, fmt.Errorf("config: line %d: usage: mapping ID = tgd.", i+1)
	}
	id := fields[1]
	var sb strings.Builder
	sb.WriteString(line[eq+1:])
	j := i
	for !strings.HasSuffix(strings.TrimSpace(sb.String()), ".") {
		j++
		if j >= len(lines) {
			return 0, fmt.Errorf("config: line %d: mapping %s: missing terminating '.'", i+1, id)
		}
		sb.WriteString("\n")
		sb.WriteString(lines[j])
	}
	m, err := parser.ParseMapping(id, sb.String())
	if err != nil {
		return 0, err
	}
	if _, ok := cfg.Peers[m.Source]; !ok {
		return 0, fmt.Errorf("config: mapping %s: unknown source peer %s", id, m.Source)
	}
	if _, ok := cfg.Peers[m.Target]; !ok {
		return 0, fmt.Errorf("config: mapping %s: unknown target peer %s", id, m.Target)
	}
	cfg.Mappings = append(cfg.Mappings, m)
	return j + 1, nil
}

// parseTrust handles "trust NAME { peer P N | mapping M N | default N }".
func (cfg *Config) parseTrust(lines []string, i int) (int, error) {
	fields := strings.Fields(strings.TrimSpace(lines[i]))
	if len(fields) != 3 || fields[2] != "{" {
		return 0, fmt.Errorf("config: line %d: usage: trust PEER {", i+1)
	}
	name := fields[1]
	if _, ok := cfg.Peers[name]; !ok {
		return 0, fmt.Errorf("config: line %d: unknown peer %s", i+1, name)
	}
	if _, dup := cfg.Policies[name]; dup {
		return 0, fmt.Errorf("config: line %d: duplicate trust block for %s", i+1, name)
	}
	pol := &recon.Policy{Default: recon.Distrusted}
	i++
	for ; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "}" {
			cfg.Policies[name] = pol
			return i + 1, nil
		}
		kv := strings.Fields(line)
		bad := func() (int, error) {
			return 0, fmt.Errorf("config: line %d: expected 'peer P N', 'mapping M N', 'relation R N' or 'default N', got %q", i+1, line)
		}
		switch {
		case len(kv) == 2 && kv[0] == "default":
			n, err := strconv.Atoi(kv[1])
			if err != nil {
				return bad()
			}
			pol.Default = n
		case len(kv) == 3 && kv[0] == "peer":
			n, err := strconv.Atoi(kv[2])
			if err != nil {
				return bad()
			}
			pol.Conditions = append(pol.Conditions, recon.FromPeer(kv[1], n))
		case len(kv) == 3 && kv[0] == "mapping":
			n, err := strconv.Atoi(kv[2])
			if err != nil {
				return bad()
			}
			pol.Conditions = append(pol.Conditions, recon.ThroughMapping(kv[1], n))
		case len(kv) == 3 && kv[0] == "relation":
			n, err := strconv.Atoi(kv[2])
			if err != nil {
				return bad()
			}
			pol.Conditions = append(pol.Conditions, recon.OnRelation(kv[1], n))
		default:
			return bad()
		}
	}
	return 0, fmt.Errorf("config: trust %s: missing closing '}'", name)
}
