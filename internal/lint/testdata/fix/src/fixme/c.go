package fixme

//lint:ignore transitivepurity nothing here uses the clock anymore
func version() int {
	return 3
}
