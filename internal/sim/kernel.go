package sim

// Kernel names the scheduling kernel the network and machine layers build
// on. There is one kernel, the flat Engine; the alias keeps code written
// against the name building.
type Kernel = *Engine
