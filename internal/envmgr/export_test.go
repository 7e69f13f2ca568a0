package envmgr

// FailNext makes m's next mutating operator fail with err, once — failure
// injection for the repair engine's abort path when Apply fails.
func FailNext(m *Manager, err error) { m.failNext = err }
