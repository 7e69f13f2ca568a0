package netsim

// ForceGlobalReflow makes every later solve on n recompute every flow as
// one component, the pre-incremental reference the solver-equivalence
// tests compare against. Set it before the first flow starts.
func ForceGlobalReflow(n *Network) { n.globalReflow = true }
