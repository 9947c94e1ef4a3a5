package experiments

// sidecar spawns outside runner.go: even inside the exempt package, only
// the worker-pool file itself may use go statements.
func sidecar(done chan struct{}) {
	go func() { done <- struct{}{} }() // want `goroutine spawn in internal package`
}

// suppressedSpawn shows the escape hatch.
func suppressedSpawn(done chan struct{}) {
	//lint:ignore transitivepurity fixture demonstrates the escape hatch
	go func() { done <- struct{}{} }()
}
