package taskgraph

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// JSON interchange format. Arcs are encoded between ordinary subtasks with
// the message size attached, so the on-disk form mirrors how applications
// are specified; communication subtasks are re-materialized on decode.

type graphJSON struct {
	Subtasks []subtaskJSON `json:"subtasks"`
	Arcs     []arcJSON     `json:"arcs"`
}

type subtaskJSON struct {
	Name     string  `json:"name"`
	Cost     float64 `json:"cost"`
	Release  float64 `json:"release,omitempty"`
	EndToEnd float64 `json:"endToEnd,omitempty"`
	Pinned   *int    `json:"pinned,omitempty"`
}

type arcJSON struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Size float64 `json:"size"`
}

// MarshalJSON encodes the graph in the interchange format. It fails only
// on a NaN or infinite cost, size, release or deadline, which JSON cannot
// carry (a decoded graph never has one).
func (g *Graph) MarshalJSON() ([]byte, error) {
	for i := range g.nodes {
		n := &g.nodes[i]
		for _, f := range [...]float64{n.Cost, n.Size, n.Release, n.EndToEnd} {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
			}
		}
	}
	return g.AppendCanonical(nil), nil
}

// AppendCanonical appends the graph's interchange JSON to dst and returns
// the extended slice. The bytes are exactly what encoding/json produces
// for the interchange structs (subtasks in ID order with omitempty
// release/endToEnd and an optional pinned processor, then one arc per
// message in ID order), written straight from the node and CSR arrays
// without reflection. Re-encoding a decoded graph this way collapses
// formatting differences, so the output is the graph's canonical form.
// Non-finite numbers, which MarshalJSON rejects, are written in strconv's
// 'g' form.
func (g *Graph) AppendCanonical(dst []byte) []byte {
	dst = append(dst, `{"subtasks":`...)
	first := true
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.Kind != KindSubtask {
			continue
		}
		dst = appendSep(dst, first)
		first = false
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, n.Name)
		dst = append(dst, `,"cost":`...)
		dst = appendJSONFloat(dst, n.Cost)
		if n.Release != 0 {
			dst = append(dst, `,"release":`...)
			dst = appendJSONFloat(dst, n.Release)
		}
		if n.EndToEnd != 0 {
			dst = append(dst, `,"endToEnd":`...)
			dst = appendJSONFloat(dst, n.EndToEnd)
		}
		if n.Pinned != Unpinned {
			dst = append(dst, `,"pinned":`...)
			dst = strconv.AppendInt(dst, int64(n.Pinned), 10)
		}
		dst = append(dst, '}')
	}
	dst = appendClose(dst, first)
	dst = append(dst, `,"arcs":`...)
	first = true
	for i := range g.nodes {
		if g.nodes[i].Kind != KindMessage {
			continue
		}
		dst = appendSep(dst, first)
		first = false
		dst = append(dst, `{"from":`...)
		dst = appendJSONString(dst, g.nodes[g.predAdj[g.predOff[i]]].Name)
		dst = append(dst, `,"to":`...)
		dst = appendJSONString(dst, g.nodes[g.succAdj[g.succOff[i]]].Name)
		dst = append(dst, `,"size":`...)
		dst = appendJSONFloat(dst, g.nodes[i].Size)
		dst = append(dst, '}')
	}
	dst = appendClose(dst, first)
	return append(dst, '}')
}

// appendSep opens a JSON array before its first element and separates
// later ones.
func appendSep(dst []byte, first bool) []byte {
	if first {
		return append(dst, '[')
	}
	return append(dst, ',')
}

// appendClose closes a JSON array, or writes null for an empty one (a nil
// slice, as encoding/json renders it).
func appendClose(dst []byte, empty bool) []byte {
	if empty {
		return append(dst, "null"...)
	}
	return append(dst, ']')
}

// appendJSONFloat formats f as encoding/json does: shortest round-trip
// digits, 'f' notation inside [1e-6, 1e21) and 'e' outside it, with a
// one-digit negative exponent unpadded (1e-07 becomes 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// '"' and '\\' backslash-escaped, \b \f \n \r \t by name, other control
// bytes and '<', '>', '&' as \u00XX, invalid UTF-8 as \ufffd, and U+2028
// and U+2029 as \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Decode builds a Graph from its JSON interchange form.
func Decode(data []byte) (*Graph, error) {
	var in graphJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("decode task graph: %w", err)
	}
	b := NewBuilder()
	ids := make(map[string]NodeID, len(in.Subtasks))
	for _, st := range in.Subtasks {
		if _, dup := ids[st.Name]; dup {
			return nil, fmt.Errorf("decode task graph: duplicate subtask name %q", st.Name)
		}
		id := b.AddSubtask(st.Name, st.Cost)
		if st.Release != 0 {
			b.SetRelease(id, st.Release)
		}
		if st.EndToEnd != 0 {
			b.SetEndToEnd(id, st.EndToEnd)
		}
		if st.Pinned != nil {
			b.Pin(id, *st.Pinned)
		}
		ids[st.Name] = id
	}
	for _, a := range in.Arcs {
		u, ok := ids[a.From]
		if !ok {
			return nil, fmt.Errorf("decode task graph: arc from unknown subtask %q", a.From)
		}
		v, ok := ids[a.To]
		if !ok {
			return nil, fmt.Errorf("decode task graph: arc to unknown subtask %q", a.To)
		}
		b.Connect(u, v, a.Size)
	}
	g, err := b.Finalize()
	if err != nil {
		return nil, fmt.Errorf("decode task graph: %w", err)
	}
	return g, nil
}

// DOT renders the graph in Graphviz DOT syntax. Ordinary subtasks are boxes
// labelled with their execution times; arcs are labelled with message sizes.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph taskgraph {\n  rankdir=TB;\n  node [shape=box];\n")
	for i := range g.nodes {
		n := g.nodes[i]
		if n.Kind != KindSubtask {
			continue
		}
		extra := ""
		if g.InDegree(n.ID) == 0 && n.Release != 0 {
			extra = fmt.Sprintf("\\nr=%.4g", n.Release)
		}
		if g.OutDegree(n.ID) == 0 && n.EndToEnd != 0 {
			extra += fmt.Sprintf("\\nD=%.4g", n.EndToEnd)
		}
		fmt.Fprintf(&sb, "  %q [label=\"%s\\nc=%.4g%s\"];\n", n.Name, n.Name, n.Cost, extra)
	}
	type edge struct{ from, to, label string }
	var edges []edge
	for i := range g.nodes {
		m := g.nodes[i]
		if m.Kind != KindMessage {
			continue
		}
		edges = append(edges, edge{
			from:  g.nodes[g.Pred(m.ID)[0]].Name,
			to:    g.nodes[g.Succ(m.ID)[0]].Name,
			label: fmt.Sprintf("%.4g", m.Size),
		})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		fmt.Fprintf(&sb, "  %q -> %q [label=\"%s\"];\n", e.from, e.to, e.label)
	}
	sb.WriteString("}\n")
	return sb.String()
}
