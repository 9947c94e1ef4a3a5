// Package cli holds the flag-value parsers shared by the command-line
// tools (rtcsim, rtctrace, rtcplot, rtcfleet, benchdrop): scenario
// resolution, controller selection, and content-class lookup, kept here
// so they are unit-testable.
package cli

import (
	"fmt"

	"rtcadapt/internal/core"
	"rtcadapt/internal/video"
)

// BuildController constructs a controller by name. resolution enables the
// adaptive controller's resolution ladder.
func BuildController(name string, resolution bool) (core.Controller, error) {
	switch name {
	case "native-rc":
		return core.NewNativeRC(), nil
	case "reset-only":
		return core.NewResetOnly(), nil
	case "adaptive":
		return core.NewAdaptive(core.AdaptiveConfig{EnableResolution: resolution}), nil
	}
	return nil, fmt.Errorf("unknown controller %q", name)
}

// ParseContent looks up a content class by its String() name.
func ParseContent(name string) (video.Class, error) {
	for _, c := range video.Classes() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown content class %q", name)
}
