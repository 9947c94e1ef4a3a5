// Package experiments mirrors the production worker pool's location:
// runner.go is the one file in internal/... where transitivepurity permits
// go statements.
package experiments

func fanOut(jobs []func(), done chan struct{}) {
	for _, job := range jobs {
		job := job
		go func() { // exempt: this file is the sanctioned worker pool
			job()
			done <- struct{}{}
		}()
	}
}
