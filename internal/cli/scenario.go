package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rtcadapt/internal/scenario"
)

// ResolveScenario maps a -scenario flag value to a scenario: a preset
// name from the registry, a measured "seconds,bps" capacity trace (a
// .csv path, read as a trace_csv scenario), or a path to a YAML/JSON
// scenario file (any other value containing a path separator or a
// .yaml/.yml/.json suffix, or naming an existing file, is treated as a
// scenario file).
func ResolveScenario(arg string) (scenario.Scenario, error) {
	if arg == "" {
		return scenario.Scenario{}, fmt.Errorf("empty scenario")
	}
	if strings.HasSuffix(arg, ".csv") {
		if _, err := os.Stat(arg); err != nil {
			return scenario.Scenario{}, fmt.Errorf("scenario: %w", err)
		}
		s := scenario.Scenario{Name: filepath.Base(arg), TraceCSV: arg}
		if err := s.Validate(); err != nil {
			return scenario.Scenario{}, err
		}
		return s, nil
	}
	if looksLikeFile(arg) {
		return scenario.ParseFile(arg)
	}
	s, err := scenario.Preset(arg)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("%w (or pass a .yaml/.json scenario file)", err)
	}
	return s, nil
}

// looksLikeFile distinguishes file arguments from preset names.
func looksLikeFile(arg string) bool {
	if strings.ContainsRune(arg, os.PathSeparator) {
		return true
	}
	for _, suffix := range []string{".yaml", ".yml", ".json"} {
		if strings.HasSuffix(arg, suffix) {
			return true
		}
	}
	if _, err := os.Stat(arg); err == nil {
		return true
	}
	return false
}

// ResolveScenarios resolves a comma-separated -scenario list.
func ResolveScenarios(args string) ([]scenario.Scenario, error) {
	var out []scenario.Scenario
	for _, arg := range strings.Split(args, ",") {
		arg = strings.TrimSpace(arg)
		if arg == "" {
			continue
		}
		s, err := ResolveScenario(arg)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios in %q", args)
	}
	return out, nil
}
