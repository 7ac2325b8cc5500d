package demo

// The typestate engine keys a record's cell by the local variable that
// holds it (framework.Typestate.RecordKey), not by the record itself: two
// locals that alias one flight get two independent cells. These fixtures
// pin that behaviour. No flight site in the module copies a record
// pointer into a second local (DESIGN.md §6 "Protocol typestate rules").

// retireViaAlias retires the record correctly, but through a second
// local: the alias is born, zeroed and retired in its own cell, and the
// original local is reported as never retired.
func retireViaAlias() {
	fl := pool.Get() // want `flight born here may be dropped`
	alias := fl
	*alias = flight{}
	pool.Put(alias)
}

// useAliasAfterPut writes through a plainly assigned alias after the
// record went back to its pool. That is a real use after retirement, and
// it goes unreported: the alias was never born, so it has no cell.
func useAliasAfterPut() {
	fl := pool.Get()
	var alias *flight
	alias = fl
	*fl = flight{}
	pool.Put(fl)
	alias.v = 5
}
