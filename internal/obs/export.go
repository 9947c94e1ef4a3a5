package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// This file implements the trace file formats:
//
//   - canonical CSV (one row per event, counters and meta appended) — the
//     storage format the divergence differ is designed around;
//   - Chrome trace-event JSON (chrome://tracing / Perfetto loadable, one
//     named thread per track);
//
// plus ReadTrace, which accepts either format back. Both writers are
// byte-deterministic: attribute order is preserved from emission, floats
// use strconv's shortest round-trip form, and nothing iterates a map.

// csvHeader returns the canonical CSV header row. A function rather than
// a package-level slice so no caller can mutate the shared canonical
// form.
func csvHeader() []string {
	return []string{"type", "seq", "at_ns", "track", "kind", "attrs"}
}

// formatNum renders a float in the canonical shortest round-trip form.
func formatNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// encodeAttrs renders ordered attributes as "k=v|k=v".
func encodeAttrs(attrs []Attr) string {
	var b strings.Builder
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value())
	}
	return b.String()
}

// decodeAttrs parses the encodeAttrs form. Values that parse as floats
// become numeric attributes, everything else is a string attribute —
// matching how the typed emitters use the two arms.
func decodeAttrs(s string) ([]Attr, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "|")
	attrs := make([]Attr, 0, len(parts))
	for _, part := range parts {
		key, val, ok := strings.Cut(part, "=")
		if !ok || key == "" {
			return nil, fmt.Errorf("obs: malformed attribute %q", part)
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			attrs = append(attrs, Attr{Key: key, Num: v})
		} else {
			attrs = append(attrs, Attr{Key: key, Str: val})
		}
	}
	return attrs, nil
}

// WriteCSV writes the canonical CSV trace format.
func WriteCSV(w io.Writer, t *Trace) error {
	cw := csv.NewWriter(w)
	rows := make([][]string, 0, len(t.Events)+len(t.Counters)+2)
	rows = append(rows, csvHeader())
	for _, ev := range t.Events {
		rows = append(rows, []string{
			"event",
			strconv.FormatUint(ev.Seq, 10),
			strconv.FormatInt(int64(ev.At), 10),
			ev.Track,
			string(ev.Kind),
			encodeAttrs(ev.Attrs),
		})
	}
	for _, c := range t.Counters {
		rows = append(rows, []string{"counter", "", "", "", c.Name, formatNum(c.Value)})
	}
	rows = append(rows, []string{"meta", "", "", "", "dropped_events", strconv.Itoa(t.DroppedEvents)})
	return cw.WriteAll(rows)
}

// chromeTrackIDs returns one numeric thread id per track, assigned in
// first-appearance order (deterministic because the event order is).
func chromeTrackIDs(t *Trace) (order []string, ids map[string]int) {
	ids = make(map[string]int)
	for _, ev := range t.Events {
		if _, ok := ids[ev.Track]; !ok {
			ids[ev.Track] = len(ids) + 1
			order = append(order, ev.Track)
		}
	}
	return order, ids
}

// errWriter folds the first write error; subsequent writes are no-ops.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshal of a string cannot fail; keep the trace well-formed
		// regardless.
		return `""`
	}
	return string(b)
}

// WriteChromeJSON writes the trace in Chrome trace-event JSON array
// format: instant events ("ph":"i") on one named thread per track, with
// exact virtual timestamps duplicated into args.at_ns (the "ts" field is
// microseconds and would truncate). chrome://tracing and Perfetto load
// the output directly.
func WriteChromeJSON(w io.Writer, t *Trace) error {
	ew := &errWriter{w: w}
	ew.printf("[\n")
	ew.printf(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"rtcadapt"}}`)
	order, ids := chromeTrackIDs(t)
	for _, track := range order {
		ew.printf(",\n")
		ew.printf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
			ids[track], jsonString(track))
	}
	for _, ev := range t.Events {
		ew.printf(",\n")
		ew.printf(`{"name":%s,"cat":%s,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%s,"args":{"seq":%d,"at_ns":%d`,
			jsonString(string(ev.Kind)), jsonString(ev.Track), ids[ev.Track],
			strconv.FormatFloat(float64(ev.At)/1e3, 'f', 3, 64), ev.Seq, int64(ev.At))
		for _, a := range ev.Attrs {
			if a.Str != "" {
				ew.printf(",%s:%s", jsonString(a.Key), jsonString(a.Str))
			} else {
				ew.printf(",%s:%s", jsonString(a.Key), formatNum(a.Num))
			}
		}
		ew.printf("}}")
	}
	ew.printf(",\n")
	ew.printf(`{"name":"counters","ph":"M","pid":1,"tid":0,"args":{`)
	for i, c := range t.Counters {
		if i > 0 {
			ew.printf(",")
		}
		ew.printf("%s:%s", jsonString(c.Name), formatNum(c.Value))
	}
	ew.printf("}}")
	ew.printf(",\n")
	ew.printf(`{"name":"trace_meta","ph":"M","pid":1,"tid":0,"args":{"dropped_events":%d}}`, t.DroppedEvents)
	ew.printf("\n]\n")
	return ew.err
}

// ReadTrace reads a trace file in either supported format, sniffing CSV
// vs Chrome JSON from the first non-space byte. Malformed input returns
// an error; it never panics (see FuzzReadTrace).
func ReadTrace(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("obs: empty trace file")
	}
	if trimmed[0] == '[' || trimmed[0] == '{' {
		return readChromeJSON(trimmed)
	}
	return readCSV(data)
}

// readCSV parses the canonical CSV format.
func readCSV(data []byte) (*Trace, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = len(csvHeader())
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("obs: bad trace CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("obs: empty trace CSV")
	}
	if strings.Join(rows[0], ",") != strings.Join(csvHeader(), ",") {
		return nil, fmt.Errorf("obs: bad trace CSV header %q", rows[0])
	}
	t := &Trace{}
	for i, row := range rows[1:] {
		switch row[0] {
		case "event":
			seq, err := strconv.ParseUint(row[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("obs: row %d: bad seq %q", i+2, row[1])
			}
			atNs, err := strconv.ParseInt(row[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("obs: row %d: bad at_ns %q", i+2, row[2])
			}
			if row[4] == "" {
				return nil, fmt.Errorf("obs: row %d: empty kind", i+2)
			}
			attrs, err := decodeAttrs(row[5])
			if err != nil {
				return nil, fmt.Errorf("obs: row %d: %w", i+2, err)
			}
			t.Events = append(t.Events, Event{
				Seq: seq, At: time.Duration(atNs), Track: row[3],
				Kind: Kind(row[4]), Attrs: attrs,
			})
		case "counter":
			v, err := strconv.ParseFloat(row[5], 64)
			if err != nil {
				return nil, fmt.Errorf("obs: row %d: bad counter value %q", i+2, row[5])
			}
			t.Counters = append(t.Counters, Counter{Name: row[4], Value: v})
		case "meta":
			if row[4] == "dropped_events" {
				n, err := strconv.Atoi(row[5])
				if err != nil {
					return nil, fmt.Errorf("obs: row %d: bad dropped_events %q", i+2, row[5])
				}
				t.DroppedEvents = n
			}
		default:
			return nil, fmt.Errorf("obs: row %d: unknown row type %q", i+2, row[0])
		}
	}
	return t, nil
}

// chromeEvent is the decodable shell of one trace-event object; args is
// kept raw so attribute order survives (encoding/json maps would
// shuffle it).
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Args json.RawMessage `json:"args"`
}

// orderedArgs parses a JSON object into ordered key/value attributes
// using the token stream, preserving document order.
func orderedArgs(raw json.RawMessage) ([]Attr, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("obs: args is not an object")
	}
	var attrs []Attr
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, ok := keyTok.(string)
		if !ok {
			return nil, fmt.Errorf("obs: non-string args key")
		}
		valTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch v := valTok.(type) {
		case json.Number:
			f, err := strconv.ParseFloat(v.String(), 64)
			if err != nil {
				return nil, fmt.Errorf("obs: bad numeric arg %q: %w", v.String(), err)
			}
			attrs = append(attrs, Attr{Key: key, Num: f})
		case string:
			attrs = append(attrs, Attr{Key: key, Str: v})
		case bool:
			attrs = append(attrs, Attr{Key: key, Str: strconv.FormatBool(v)})
		case nil:
			attrs = append(attrs, Attr{Key: key})
		default:
			return nil, fmt.Errorf("obs: unsupported args value for %q", key)
		}
	}
	return attrs, nil
}

// takeAttr removes the named attribute from attrs, returning its numeric
// value; ok is false when absent.
func takeAttr(attrs []Attr, key string) (v float64, rest []Attr, ok bool) {
	for i, a := range attrs {
		if a.Key == key {
			return a.Num, append(attrs[:i:i], attrs[i+1:]...), true
		}
	}
	return 0, attrs, false
}

// readChromeJSON parses the WriteChromeJSON format back into a Trace.
func readChromeJSON(data []byte) (*Trace, error) {
	var raw []chromeEvent
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("obs: bad chrome trace JSON: %w", err)
	}
	t := &Trace{}
	for i, ce := range raw {
		switch {
		case ce.Ph == "M" && ce.Name == "counters":
			attrs, err := orderedArgs(ce.Args)
			if err != nil {
				return nil, fmt.Errorf("obs: event %d: %w", i, err)
			}
			for _, a := range attrs {
				t.Counters = append(t.Counters, Counter{Name: a.Key, Value: a.Num})
			}
		case ce.Ph == "M" && ce.Name == "trace_meta":
			attrs, err := orderedArgs(ce.Args)
			if err != nil {
				return nil, fmt.Errorf("obs: event %d: %w", i, err)
			}
			if v, _, ok := takeAttr(attrs, "dropped_events"); ok {
				t.DroppedEvents = int(v)
			}
		case ce.Ph == "M":
			// process_name / thread_name metadata: presentation only.
		case ce.Ph == "i":
			if ce.Name == "" {
				return nil, fmt.Errorf("obs: event %d: empty name", i)
			}
			attrs, err := orderedArgs(ce.Args)
			if err != nil {
				return nil, fmt.Errorf("obs: event %d: %w", i, err)
			}
			seq, attrs, ok := takeAttr(attrs, "seq")
			if !ok {
				return nil, fmt.Errorf("obs: event %d: missing args.seq", i)
			}
			atNs, attrs, ok := takeAttr(attrs, "at_ns")
			if !ok {
				return nil, fmt.Errorf("obs: event %d: missing args.at_ns", i)
			}
			if seq < 0 {
				return nil, fmt.Errorf("obs: event %d: negative seq", i)
			}
			t.Events = append(t.Events, Event{
				Seq: uint64(seq), At: time.Duration(int64(atNs)),
				Track: ce.Cat, Kind: Kind(ce.Name), Attrs: attrs,
			})
		default:
			return nil, fmt.Errorf("obs: event %d: unsupported phase %q", i, ce.Ph)
		}
	}
	return t, nil
}
