// Package verbs is the directive-grammar fixture: every verb of the closed
// grammar once, then a typo and the retired shard-ownership verbs, which
// `simlint -audit` must reject instead of silently ignoring.
package verbs

//simlint:hotpath
//simlint:acquire
//simlint:release
//simlint:rank-handoff
func known() {
	//simlint:allow maporder -- reason text
	_ = 1
}

type rec struct {
	n int //simlint:proto credit window
}

func unknown() {
	//simlint:alow maporder -- typo of allow
	_ = 2
}

type retired struct {
	a int //simlint:shared -- retired shard-ownership verb
	b int //simlint:outbox -- retired shard-ownership verb
}

//simlint:outbox-transfer -- retired shard-ownership verb
func handoff() {}

//simlint:shard-worker -- retired nogoroutine exception
func worker() {}
