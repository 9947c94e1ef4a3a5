package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rtcadapt/internal/units"
)

// Scenario file schema. The same keys work in YAML and JSON; rates take
// a bps/kbps/Mbps suffix (plain numbers are bps) and durations use Go
// duration syntax ("250ms", "10s").
//
//	name: standard
//	loss: 0.005
//	rtt: 50ms
//	nack: true
//	phases:
//	  - duration: 10s
//	    capacity: 2.5Mbps
//	    max_burst: 40000
//	  - duration: 20s
//	    capacity: 800kbps

// Parse decodes a scenario document. The format is sniffed: documents
// whose first non-space byte is '{' are JSON, everything else is the
// YAML subset. The result is validated.
func Parse(data []byte) (Scenario, error) {
	var root node
	var err error
	if looksJSON(data) {
		root, err = parseJSON(data)
	} else {
		root, err = parseYAML(data)
	}
	if err != nil {
		return Scenario{}, err
	}
	s, err := decodeScenario(root)
	if err != nil {
		return Scenario{}, err
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// ParseFile reads and parses a scenario file.
func ParseFile(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// looksJSON sniffs the document format.
func looksJSON(data []byte) bool {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '{'
}

// parseJSON decodes a JSON document into the shared node tree. Numbers
// keep their source text (json.Number), so both formats decode scalars
// identically.
func parseJSON(data []byte) (node, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return node{}, fmt.Errorf("scenario: bad json: %w", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err == nil {
		return node{}, fmt.Errorf("scenario: trailing content after json document")
	}
	n, err := jsonNode(v)
	if err != nil {
		return node{}, err
	}
	if n.kind != mapNode {
		return node{}, fmt.Errorf("scenario: json document must be an object")
	}
	return n, nil
}

// jsonNode converts a decoded JSON value into a node.
func jsonNode(v any) (node, error) {
	switch t := v.(type) {
	case map[string]any:
		n := node{kind: mapNode, fields: map[string]node{}}
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			child, err := jsonNode(t[k])
			if err != nil {
				return node{}, err
			}
			n.keys = append(n.keys, k)
			n.fields[k] = child
		}
		return n, nil
	case []any:
		n := node{kind: seqNode}
		for _, item := range t {
			child, err := jsonNode(item)
			if err != nil {
				return node{}, err
			}
			n.items = append(n.items, child)
		}
		return n, nil
	case string:
		return node{kind: scalarNode, scalar: t}, nil
	case json.Number:
		return node{kind: scalarNode, scalar: t.String()}, nil
	case bool:
		return node{kind: scalarNode, scalar: strconv.FormatBool(t)}, nil
	case nil:
		return node{kind: scalarNode, scalar: ""}, nil
	default:
		return node{}, fmt.Errorf("scenario: unsupported json value %T", v)
	}
}

// decoder walks a mapping node with strict unknown-key errors.
type decoder struct {
	ctx  string
	node node
	seen map[string]bool
	err  error
}

// newDecoder wraps a node that must be a mapping.
func newDecoder(ctx string, n node) (*decoder, error) {
	if n.kind != mapNode {
		return nil, fmt.Errorf("scenario: %s must be a mapping, got %s%s", ctx, n.kindName(), atLine(n))
	}
	return &decoder{ctx: ctx, node: n, seen: map[string]bool{}}, nil
}

// atLine renders a " (line N)" suffix when the node has a source line.
func atLine(n node) string {
	if n.line == 0 {
		return ""
	}
	return fmt.Sprintf(" (line %d)", n.line)
}

// field returns the named child, recording it as consumed.
func (d *decoder) field(key string) (node, bool) {
	n, ok := d.node.fields[key]
	if ok {
		d.seen[key] = true
	}
	return n, ok
}

// scalar fetches a scalar field, converting with fn.
func decodeField[T any](d *decoder, key string, fn func(string) (T, error)) T {
	var zero T
	n, ok := d.field(key)
	if !ok || d.err != nil {
		return zero
	}
	if n.kind != scalarNode {
		d.err = fmt.Errorf("scenario: %s.%s must be a scalar, got %s%s", d.ctx, key, n.kindName(), atLine(n))
		return zero
	}
	v, err := fn(n.scalar)
	if err != nil {
		d.err = fmt.Errorf("scenario: %s.%s: %w%s", d.ctx, key, err, atLine(n))
		return zero
	}
	return v
}

// finish errors on unconsumed (unknown) keys, in document order.
func (d *decoder) finish(known ...string) error {
	if d.err != nil {
		return d.err
	}
	for _, k := range d.node.keys {
		if !d.seen[k] {
			return fmt.Errorf("scenario: %s: unknown key %q (want %s)%s",
				d.ctx, k, strings.Join(known, " | "), atLine(d.node.fields[k]))
		}
	}
	return nil
}

// decodeScenario decodes the document root.
func decodeScenario(root node) (Scenario, error) {
	d, err := newDecoder("scenario", root)
	if err != nil {
		return Scenario{}, err
	}
	s := Scenario{
		Name:      decodeField(d, "name", parseString),
		TraceCSV:  decodeField(d, "trace_csv", parseString),
		Loss:      decodeField(d, "loss", parseProb),
		BurstLoss: decodeField(d, "burst_loss", parseProb),
		RTT:       decodeField(d, "rtt", parseDur),
		Queue:     decodeField(d, "queue_bytes", parseBytes),
		NACK:      decodeField(d, "nack", parseBool),
	}
	if n, ok := d.field("phases"); ok && d.err == nil {
		s.Phases, d.err = decodePhases(n)
	}
	if n, ok := d.field("model"); ok && d.err == nil {
		var m Model
		m, d.err = decodeModel(n)
		if d.err == nil {
			s.Model = &m
		}
	}
	if err := d.finish("name", "phases", "model", "trace_csv", "loss", "burst_loss", "rtt", "queue_bytes", "nack"); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// decodePhases decodes the phases sequence.
func decodePhases(n node) ([]Phase, error) {
	if n.kind != seqNode {
		return nil, fmt.Errorf("scenario: phases must be a sequence, got %s%s", n.kindName(), atLine(n))
	}
	phases := make([]Phase, 0, len(n.items))
	for i, item := range n.items {
		d, err := newDecoder(fmt.Sprintf("phases[%d]", i), item)
		if err != nil {
			return nil, err
		}
		ph := Phase{
			Duration: decodeField(d, "duration", parseDur),
			Capacity: decodeField(d, "capacity", parseRate),
			MaxBurst: decodeField(d, "max_burst", parseBits),
			Loss:     decodeField(d, "loss", parseProb),
			RTT:      decodeField(d, "rtt", parseDur),
		}
		if err := d.finish("duration", "capacity", "max_burst", "loss", "rtt"); err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}
	return phases, nil
}

// decodeModel decodes the model mapping.
func decodeModel(n node) (Model, error) {
	d, err := newDecoder("model", n)
	if err != nil {
		return Model{}, err
	}
	m := Model{
		Kind:     decodeField(d, "kind", parseString),
		Mean:     decodeField(d, "mean", parseRate),
		Duration: decodeField(d, "duration", parseDur),
		Step:     decodeField(d, "step", parseDur),
		FadeProb: decodeField(d, "fade_prob", parseProb),
		Start:    decodeField(d, "start", parseRate),
		Lo:       decodeField(d, "lo", parseRate),
		Hi:       decodeField(d, "hi", parseRate),
	}
	if err := d.finish("kind", "mean", "duration", "step", "fade_prob", "start", "lo", "hi"); err != nil {
		return Model{}, err
	}
	return m, nil
}

// Scalar converters.

func parseString(s string) (string, error) { return s, nil }

// parseRate parses a capacity: a number with a bps/kbps/Mbps suffix, or
// a bare number in bits per second.
func parseRate(s string) (units.BitsPerSec, error) {
	scale := 1.0
	num := s
	switch {
	case strings.HasSuffix(s, "Mbps"):
		scale, num = 1e6, strings.TrimSuffix(s, "Mbps")
	case strings.HasSuffix(s, "kbps"):
		scale, num = 1e3, strings.TrimSuffix(s, "kbps")
	case strings.HasSuffix(s, "bps"):
		num = strings.TrimSuffix(s, "bps")
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad rate %q (want e.g. 2.5Mbps, 800kbps, or bps)", s)
	}
	return units.BitsPerSec(v * scale), nil
}

// parseDur parses a Go duration ("250ms", "10s").
func parseDur(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q (want e.g. 250ms, 10s)", s)
	}
	return d, nil
}

// parseProb parses a probability.
func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad probability %q", s)
	}
	return v, nil
}

// parseBits parses an integer bit count.
func parseBits(s string) (units.Bits, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad bit count %q", s)
	}
	return units.Bits(v), nil
}

// parseBytes parses an integer byte count.
func parseBytes(s string) (units.Bytes, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return units.Bytes(v), nil
}

// parseBool parses a boolean.
func parseBool(s string) (bool, error) {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("bad bool %q", s)
	}
	return v, nil
}

// Marshal renders the scenario as canonical YAML: fixed field order,
// zero fields omitted, rates in the largest exact unit. The output
// re-parses to the same scenario, and marshaling is a pure function of
// the value, so golden files are byte-stable.
func Marshal(s Scenario) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "name: %s\n", marshalScalar(s.Name))
	if len(s.Phases) > 0 {
		b.WriteString("phases:\n")
		for _, ph := range s.Phases {
			fmt.Fprintf(&b, "  - duration: %s\n", ph.Duration)
			fmt.Fprintf(&b, "    capacity: %s\n", formatRate(ph.Capacity))
			if ph.MaxBurst != 0 {
				fmt.Fprintf(&b, "    max_burst: %d\n", int64(ph.MaxBurst))
			}
			if ph.Loss != 0 {
				fmt.Fprintf(&b, "    loss: %s\n", formatFloat(ph.Loss))
			}
			if ph.RTT != 0 {
				fmt.Fprintf(&b, "    rtt: %s\n", ph.RTT)
			}
		}
	}
	if m := s.Model; m != nil {
		b.WriteString("model:\n")
		fmt.Fprintf(&b, "  kind: %s\n", marshalScalar(m.Kind))
		if m.Mean != 0 {
			fmt.Fprintf(&b, "  mean: %s\n", formatRate(m.Mean))
		}
		if m.Duration != 0 {
			fmt.Fprintf(&b, "  duration: %s\n", m.Duration)
		}
		if m.Step != 0 {
			fmt.Fprintf(&b, "  step: %s\n", m.Step)
		}
		if m.FadeProb != 0 {
			fmt.Fprintf(&b, "  fade_prob: %s\n", formatFloat(m.FadeProb))
		}
		if m.Start != 0 {
			fmt.Fprintf(&b, "  start: %s\n", formatRate(m.Start))
		}
		if m.Lo != 0 {
			fmt.Fprintf(&b, "  lo: %s\n", formatRate(m.Lo))
		}
		if m.Hi != 0 {
			fmt.Fprintf(&b, "  hi: %s\n", formatRate(m.Hi))
		}
	}
	if s.TraceCSV != "" {
		fmt.Fprintf(&b, "trace_csv: %s\n", marshalScalar(s.TraceCSV))
	}
	if s.Loss != 0 {
		fmt.Fprintf(&b, "loss: %s\n", formatFloat(s.Loss))
	}
	if s.BurstLoss != 0 {
		fmt.Fprintf(&b, "burst_loss: %s\n", formatFloat(s.BurstLoss))
	}
	if s.RTT != 0 {
		fmt.Fprintf(&b, "rtt: %s\n", s.RTT)
	}
	if s.Queue != 0 {
		fmt.Fprintf(&b, "queue_bytes: %d\n", int64(s.Queue))
	}
	if s.NACK {
		b.WriteString("nack: true\n")
	}
	return []byte(b.String())
}

// marshalScalar quotes a scalar only when the plain form would be
// misread (empty, leading/trailing space, or structural characters).
func marshalScalar(s string) string {
	if s == "" {
		return `""`
	}
	plain := !strings.ContainsAny(s, ":#\"'\n\t") &&
		!strings.HasPrefix(s, " ") && !strings.HasSuffix(s, " ") &&
		!strings.HasPrefix(s, "- ") && s != "-"
	if plain {
		return s
	}
	return strconv.Quote(s)
}

// formatRate renders a rate in the largest unit that divides it exactly
// (checked bit-for-bit so the output re-parses to the identical value),
// falling back to raw bps.
func formatRate(r units.BitsPerSec) string {
	v := float64(r)
	for _, u := range []struct {
		scale  float64
		suffix string
	}{{1e6, "Mbps"}, {1e3, "kbps"}} {
		if v < u.scale {
			continue
		}
		scaled := v / u.scale
		if math.Float64bits(scaled*u.scale) == math.Float64bits(v) {
			return formatFloat(scaled) + u.suffix
		}
	}
	return formatFloat(v) + "bps"
}

// formatFloat is the canonical shortest round-trippable rendering.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
