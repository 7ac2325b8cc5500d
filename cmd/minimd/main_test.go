package main

import "testing"

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		name  string
		cores int
		layer string
		ok    bool
	}{
		{"defaults", 48, "ugni", true},
		{"mpi", 1, "mpi", true},
		{"zero cores", 0, "ugni", false},
		{"negative cores", -24, "ugni", false},
		{"unknown layer", 48, "foo", false},
		{"empty layer", 48, "", false},
	} {
		if err := validate(c.cores, c.layer); (err == nil) != c.ok {
			t.Errorf("%s: validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
