package main

import "testing"

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		min, max int
		ok       bool
	}{
		{8, 4 << 20, true},
		{1, 1, true},
		{64, 64, true},
		{0, 4 << 20, false}, // size *= 2 would never leave 0
		{-8, 64, false},
		{128, 64, false}, // empty sweep
	} {
		if err := validate(c.min, c.max); (err == nil) != c.ok {
			t.Errorf("validate(%d, %d) = %v, want ok=%v", c.min, c.max, err, c.ok)
		}
	}
}
