package mdrun

import (
	"strings"
	"testing"
)

// TestForceMethodSerial pins the guard's escalation mapping.
func TestForceMethodSerial(t *testing.T) {
	cases := map[ForceMethod]ForceMethod{
		Direct:           Direct,
		Pairlist:         Pairlist,
		CellGrid:         CellGrid,
		ParallelDirect:   Direct,
		ParallelPairlist: Pairlist,
		ParallelCellGrid: CellGrid,
		// The escalation ladder preserves the requested precision:
		// mixed-precision runs land on the serial mixed kernel, never
		// silently back on float64.
		PairlistF32:         PairlistF32,
		CellGridF32:         CellGridF32,
		ParallelPairlistF32: PairlistF32,
	}
	for in, want := range cases {
		if got := in.Serial(); got != want {
			t.Errorf("%v.Serial() = %v, want %v", in, got, want)
		}
	}
	if got := ForceMethod(99).Serial(); got != 99 {
		t.Errorf("unknown method Serial() = %v, want itself", got)
	}
}

// TestParseMethodRoundTrip: every method parses back from its name and
// precision, and String keeps the established names.
func TestParseMethodRoundTrip(t *testing.T) {
	want := []string{
		"direct", "pairlist", "cellgrid", "pardirect", "parpairlist", "parcellgrid",
		"pairlist-f32", "parpairlist-f32", "cellgrid-f32",
	}
	for i, f := range allMethods {
		if f.String() != want[i] {
			t.Errorf("ForceMethod(%d).String() = %q, want %q", int(f), f, want[i])
		}
		name, prec, _ := strings.Cut(want[i], "-")
		got, err := ParseMethod(name, prec)
		if err != nil || got != f {
			t.Errorf("ParseMethod(%q, %q) = %v, %v; want %v", name, prec, got, err, f)
		}
	}
	if got := ForceMethod(99).String(); got != "ForceMethod(99)" {
		t.Errorf("unknown method String() = %q", got)
	}
	if got, err := ParseMethod("", ""); err != nil || got != Direct {
		t.Errorf(`ParseMethod("", "") = %v, %v; want direct`, got, err)
	}
	if got, err := ParseMethod("pairlist", "f64"); err != nil || got != Pairlist {
		t.Errorf(`ParseMethod("pairlist", "f64") = %v, %v`, got, err)
	}
	if MethodNames("") != "direct|pairlist|cellgrid|pardirect|parpairlist|parcellgrid" ||
		MethodNames("f32") != "pairlist|parpairlist|cellgrid" {
		t.Errorf("MethodNames = %q / %q", MethodNames(""), MethodNames("f32"))
	}
}

func TestParseMethodRejects(t *testing.T) {
	cases := []struct{ method, precision, want string }{
		{"quantum", "f64", "unknown method"},
		{"pairlist-f32", "", "unknown method"},
		{"direct", "f32", "precision f32 supports"},
		{"pardirect", "f32", "precision f32 supports"},
		{"pairlist", "f16", `precision "f16"`},
		{"pairlist", "F32", `precision "F32"`},
	}
	for _, c := range cases {
		_, err := ParseMethod(c.method, c.precision)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseMethod(%q, %q) error %v, want it to mention %q", c.method, c.precision, err, c.want)
		}
	}
}

func TestParseThermostat(t *testing.T) {
	for name, want := range map[string]ThermostatKind{"": NVE, "rescale": Rescale, "berendsen": Berendsen} {
		if got, err := ParseThermostat(name); err != nil || got != want {
			t.Errorf("ParseThermostat(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Langevin is not resumable from a checkpoint, so no front end may
	// name it; "nve" stays unnamed to keep the accepted set unchanged.
	for _, name := range []string{"langevin", "nve", "maxwell-daemon"} {
		if _, err := ParseThermostat(name); err == nil {
			t.Errorf("ParseThermostat(%q) accepted", name)
		}
	}
	if Langevin.String() != "langevin" || ThermostatKind(7).String() != "ThermostatKind(7)" {
		t.Errorf("ThermostatKind.String: %q, %q", Langevin, ThermostatKind(7))
	}
}
