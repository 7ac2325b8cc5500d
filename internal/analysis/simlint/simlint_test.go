package simlint

import (
	"path/filepath"
	"testing"

	"charmgo/internal/analysis/framework"
)

// fixtureRoot returns the overlay tree for one analyzer's fixtures.
func fixtureRoot(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestNoWallClock(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("nowallclock"), NoWallClock,
		"charmgo/internal/sim", "charmgo/internal/bench")
}

func TestNoGlobalRand(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("noglobalrand"), NoGlobalRand,
		"charmgo/internal/converse")
}

func TestMapOrder(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("maporder"), MapOrder,
		"charmgo/internal/demo")
}

func TestNoGoroutine(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("nogoroutine"), NoGoroutine,
		"charmgo/internal/converse", "charmgo/internal/ampi",
		"charmgo/internal/sim")
}

func TestBookViaKernel(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("bookviakernel"), BookViaKernel,
		"charmgo/internal/charm", "charmgo/internal/gemini")
}

func TestPoolLeak(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("poolleak"), PoolLeak,
		"charmgo/internal/demo")
}

func TestUseAfterRelease(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("useafterrelease"), UseAfterRelease,
		"charmgo/internal/demo")
}

func TestHotPathAlloc(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("hotpathalloc"), HotPathAlloc,
		"charmgo/internal/demo")
}

func TestCloseChain(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("closechain"), CloseChain,
		"charmgo/internal/demo")
}

func TestCreditBalanceFixture(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("creditbalance"), CreditBalance,
		"charmgo/internal/demo")
}

func TestFlightLifecycleFixture(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("flightlifecycle"), FlightLifecycle,
		"charmgo/internal/demo")
}

func TestEventTotalityFixture(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("eventtotality"), EventTotality,
		"charmgo/internal/demo")
}

func TestBoundedRetryFixture(t *testing.T) {
	framework.RunFixture(t, fixtureRoot("boundedretry"), BoundedRetry,
		"charmgo/internal/demo")
}

// TestScope pins the package-scope helpers the analyzers share.
func TestScope(t *testing.T) {
	cases := []struct {
		pkg  string
		want bool
	}{
		{"charmgo", true},
		{"charmgo/internal/sim", true},
		{"charmgo/internal/gemini", true},
		{"charmgo/internal/machine/ugnimachine", true},
		{"charmgo/internal/machine/ugnimachine_test", true},
		{"charmgo/internal/bench", false},
		{"charmgo/internal/analysis/simlint", false},
		{"charmgo/cmd/nqueens", false},
		{"charmgo/examples/quickstart", false},
	}
	for _, c := range cases {
		if got := simulationScope(c.pkg); got != c.want {
			t.Errorf("simulationScope(%q) = %v, want %v", c.pkg, got, c.want)
		}
	}
}
