package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseScenario asserts the parser's only failure mode is a returned
// error: no panics, no accepted-but-invalid scenarios. Seeded with the
// golden preset corpus plus malformed shapes from the parse tests; runs
// in the CI fuzz-smoke job.
func FuzzParseScenario(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.yaml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name": "x", "phases": [{"duration": "1s", "capacity": 1000}]}`))
	f.Add([]byte("name: x\nphases:\n- duration: 1s\n  capacity: 1Mbps\n"))
	f.Add([]byte("name: 'quo''ted'\nmodel:\n  kind: lte # cell\n"))
	f.Add([]byte("name: fig4\nmodel:\n  kind: lte\n  mean: 2.5Mbps\n  fade_prob: 0.02\n"))
	f.Add([]byte("a:\n  b:\n    - c\n    -\n  d: \"e\\n\"\n"))
	f.Add([]byte("-\n- -\n"))
	f.Add([]byte("\t"))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Whatever Parse accepts must be valid and re-parseable from its
		// canonical form.
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Parse returned an invalid scenario: %v\ninput: %q", verr, data)
		}
		out := Marshal(s)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ncanonical: %q", err, out)
		}
		if string(Marshal(back)) != string(out) {
			t.Fatalf("marshal is not a fixpoint:\nfirst: %q\nsecond: %q", out, Marshal(back))
		}
	})
}
