package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"rtcadapt/internal/units"
)

// ReadCSV parses a measured capacity trace: "seconds,bps" rows, each
// meaning "from this time on", with an optional "seconds,bps" header row.
func ReadCSV(name string, r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	var points []Point
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: %w", line+1, err)
		}
		line++
		if line == 1 && rec[0] == "seconds" {
			continue // header
		}
		sec, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad seconds %q", line, rec[0])
		}
		bps, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad bps %q", line, rec[1])
		}
		points = append(points, Point{At: time.Duration(sec * float64(time.Second)), Bps: units.BitsPerSec(bps)})
	}
	return New(name, points...)
}
