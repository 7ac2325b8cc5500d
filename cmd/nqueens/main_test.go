package main

import "testing"

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		name                       string
		n, threshold, cores, chunk int
		layer                      string
		ok                         bool
	}{
		{"defaults", 13, 5, 48, 1, "ugni", true},
		{"mpi", 13, 13, 1, 1, "mpi", true},
		{"zero cores", 13, 5, 0, 1, "ugni", false},
		{"negative cores", 13, 5, -24, 1, "ugni", false},
		{"unknown layer", 13, 5, 48, 1, "foo", false},
		{"empty layer", 13, 5, 48, 1, "", false},
		{"zero threshold", 13, 0, 48, 1, "ugni", false},
		{"threshold past n", 8, 9, 48, 1, "ugni", false},
		{"empty board", 0, 1, 48, 1, "ugni", false},
		{"single queen", 1, 1, 1, 1, "ugni", true},
		{"largest board", 19, 7, 48, 100, "mpi", true},
		{"board past the known counts", 20, 7, 48, 1, "ugni", false},
		{"board past the mask width", 64, 7, 48, 1, "ugni", false},
		{"zero chunk", 13, 5, 48, 0, "ugni", false},
		{"negative chunk", 13, 5, 48, -4, "ugni", false},
	} {
		if err := validate(c.n, c.threshold, c.cores, c.chunk, c.layer); (err == nil) != c.ok {
			t.Errorf("%s: validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
