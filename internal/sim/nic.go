package sim

// NICEngine is the kernel's view of one message-carrying engine: anything
// that can book serialized transfer time and deliver a completion. The
// Gemini model's FMA, BTE, SMSG, and MSGQ units implement it over gap
// resources and torus links; the shm loopback implements it over the
// memory cost model. Machine layers program against this interface, so
// every transfer — inter-node or intra-node — books through one audited
// path.
type NICEngine interface {
	// Name labels the engine for diagnostics.
	Name() string
	// Ready reports the earliest time at or after `at` the engine could
	// begin a zero-length transfer (i.e. its next idle instant). It must
	// not book anything.
	Ready(at Time) Time
	// Serialization reports the engine-side serialization time of a
	// payload of the given size.
	Serialization(size int) Time
	// Transfer books a transfer of size bytes to dst, becoming eligible
	// at ready. It returns when the source side is done with the
	// transaction and when the payload is visible at the destination.
	Transfer(dst, size int, ready Time) (srcDone, dstArrive Time)
	// Enqueue schedules a completion callback at the given time on the
	// engine's event loop.
	Enqueue(at Time, fn func())
	// EnqueueArg is the closure-free form of Enqueue: fn(arg) runs at the
	// given time. With fn a package-level function and arg pooled state,
	// scheduling a completion allocates nothing (see Engine.AtArg).
	EnqueueArg(at Time, fn func(any), arg any)
}
