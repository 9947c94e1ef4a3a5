package simtime

// Scheduler mirrors the real scheduler's event API closely enough for the
// hotpathalloc fixture: same method names and callback shapes, int64
// stand-ins for time.Duration so the fixture stays outside transitivepurity's
// and unitflow's concerns.
type Scheduler struct{ now int64 }

// Event mirrors the real value handle.
type Event struct{}

// At schedules fn at an absolute instant (closure-taking form).
func (s *Scheduler) At(at int64, fn func()) Event { _ = fn; return Event{} }

// After schedules fn after a delay (closure-taking form).
func (s *Scheduler) After(d int64, fn func()) Event { _ = fn; return Event{} }

// AtArg is the closure-free form: fn is a package-level function and arg
// rides along.
func (s *Scheduler) AtArg(at int64, fn func(any), arg any) Event { _, _ = fn, arg; return Event{} }

// AfterArg is the closure-free relative form.
func (s *Scheduler) AfterArg(d int64, fn func(any), arg any) Event { _, _ = fn, arg; return Event{} }
