// Command benchjson converts `go test -bench` text output into the
// canonical JSON baseline format and compares runs against a committed
// baseline.
//
// Examples:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH.json
//	benchjson -diff BENCH_old.json BENCH_new.json
//	go test -bench . -benchmem ./... | benchjson -against BENCH.json -max-ns-ratio 1.3
//	go test -bench . -benchmem ./... | benchjson -against auto -max-ns-ratio 1.3
//
// `-against auto` resolves the baseline to the highest-numbered
// BENCH_<n>.json in the current directory, so compare runs follow the
// newest committed generation without hard-coding it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rtcadapt/internal/benchjson"
	"rtcadapt/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdin io.Reader, stdoutW, stderrW io.Writer) int {
	stdout := &cli.Printer{W: stdoutW}
	code := runCmd(args, stdin, stdout, stderrW)
	if code == 0 && stdout.Err != nil {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "benchjson: writing output: %v\n", stdout.Err)
		return 1
	}
	return code
}

func runCmd(args []string, stdin io.Reader, stdout *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		out        = fs.String("o", "", "write canonical JSON to this file (default stdout)")
		diff       = fs.String("diff", "", "compare this baseline JSON against a second JSON file argument")
		against    = fs.String("against", "", "compare parsed stdin against this baseline JSON (\"auto\": highest-numbered BENCH_<n>.json here)")
		maxNsRatio = fs.Float64("max-ns-ratio", 0, "with -against/-diff: fail when new/old ns/op exceeds this (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "benchjson: %v\n", err)
		return 1
	}

	switch {
	case *diff != "":
		if fs.NArg() != 1 {
			return fail(fmt.Errorf("-diff needs exactly one JSON file argument"))
		}
		oldEs, err := benchjson.ReadFile(*diff)
		if err != nil {
			return fail(err)
		}
		newEs, err := benchjson.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		return report(benchjson.Diff(oldEs, newEs), *maxNsRatio, stdout)
	case *against != "":
		path := *against
		if path == "auto" {
			var err error
			if path, err = latestBaseline("."); err != nil {
				return fail(err)
			}
			stdout.Printf("benchjson: comparing against %s\n", path)
		}
		oldEs, err := benchjson.ReadFile(path)
		if err != nil {
			return fail(err)
		}
		newEs, err := benchjson.Parse(stdin)
		if err != nil {
			return fail(err)
		}
		return report(benchjson.Diff(oldEs, newEs), *maxNsRatio, stdout)
	default:
		es, err := benchjson.Parse(stdin)
		if err != nil {
			return fail(err)
		}
		if len(es) == 0 {
			return fail(fmt.Errorf("no benchmark lines on stdin"))
		}
		w := io.Writer(stdout.W)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := benchjson.WriteJSON(w, es); err != nil {
			return fail(err)
		}
		if *out != "" {
			stdout.Printf("benchjson: wrote %d entries to %s\n", len(es), *out)
		}
		return 0
	}
}

// latestBaseline returns the highest-numbered BENCH_<n>.json in dir —
// the newest committed baseline generation. Numeric comparison, not
// lexical: BENCH_10.json beats BENCH_7.json.
func latestBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best := -1
	bestName := ""
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), "BENCH_")
		if !ok {
			continue
		}
		numStr, ok := strings.CutSuffix(rest, ".json")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(numStr)
		if err != nil || n < 0 {
			continue
		}
		if n > best {
			best, bestName = n, e.Name()
		}
	}
	if best < 0 {
		return "", fmt.Errorf("no BENCH_<n>.json baseline found in %s", dir)
	}
	return filepath.Join(dir, bestName), nil
}

// report prints a before/after table and returns 1 when any benchmark
// regressed past maxNsRatio (0 disables the gate). A set gate that
// compared nothing also fails: a renamed or missing benchmark must not
// turn its tripwire off silently.
func report(ds []benchjson.Delta, maxNsRatio float64, stdout *cli.Printer) int {
	regressed, compared := 0, 0
	stdout.Printf("%-55s %12s %12s %8s %8s\n", "benchmark", "old ns/op", "new ns/op", "ns Δ", "allocs Δ")
	for _, d := range ds {
		name := d.Pkg + "." + d.Name
		switch {
		case d.Old == nil:
			stdout.Printf("%-55s %12s %12.0f %8s %8s\n", name, "-", d.New.NsPerOp, "new", "")
		case d.New == nil:
			stdout.Printf("%-55s %12.0f %12s %8s %8s\n", name, d.Old.NsPerOp, "-", "gone", "")
		default:
			compared++
			nsR, alR := d.NsRatio(), d.AllocsRatio()
			stdout.Printf("%-55s %12.0f %12.0f %7.2fx %7.2fx\n", name, d.Old.NsPerOp, d.New.NsPerOp, nsR, alR)
			if maxNsRatio > 0 && nsR > maxNsRatio {
				regressed++
				stdout.Printf("REGRESSION: %s ns/op ratio %.2f exceeds %.2f\n", name, nsR, maxNsRatio)
			}
		}
	}
	if maxNsRatio > 0 && compared == 0 {
		stdout.Printf("NO MATCH: no benchmark matches a baseline entry; the %.2fx gate compared nothing\n", maxNsRatio)
		return 1
	}
	if regressed > 0 {
		return 1
	}
	return 0
}
