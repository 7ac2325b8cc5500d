package main

import "testing"

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		name                string
		n, threshold, cores int
		layer               string
		ok                  bool
	}{
		{"defaults", 13, 5, 48, "ugni", true},
		{"mpi", 13, 13, 1, "mpi", true},
		{"zero cores", 13, 5, 0, "ugni", false},
		{"negative cores", 13, 5, -24, "ugni", false},
		{"unknown layer", 13, 5, 48, "foo", false},
		{"empty layer", 13, 5, 48, "", false},
		{"zero threshold", 13, 0, 48, "ugni", false},
		{"threshold past n", 8, 9, 48, "ugni", false},
		{"empty board", 0, 1, 48, "ugni", false},
	} {
		if err := validate(c.n, c.threshold, c.cores, c.layer); (err == nil) != c.ok {
			t.Errorf("%s: validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
