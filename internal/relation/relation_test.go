package relation

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildSalary(t *testing.T) *Dataset {
	t.Helper()
	b := NewBuilder("salary", "Company", "Title", "Location", "Gender", "Age", "Salary")
	rows := [][]string{
		{"IBM", "QA Lead", "Boston", "M", "30-40", "60K-90K"},
		{"IBM", "Sw Engg", "Boston", "F", "20-30", "90K-120K"},
		{"IBM", "Engg Mgr", "SFO", "M", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "SFO", "F", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "Boston", "F", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "Boston", "M", "20-30", "90K-120K"},
		{"Google", "Tech Arch", "Boston", "M", "40-50", "120K-150K"},
		{"Microsoft", "Engg Mgr", "Seattle", "F", "30-40", "90K-120K"},
		{"Microsoft", "Sw Engg", "Seattle", "F", "30-40", "90K-120K"},
		{"Facebook", "QA Mgr", "Seattle", "F", "30-40", "90K-120K"},
		{"Facebook", "QA Engg", "Seattle", "F", "20-30", "30K-60K"},
	}
	for _, r := range rows {
		if err := b.AddRecord(r...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	d := buildSalary(t)
	if d.NumRecords() != 11 {
		t.Fatalf("NumRecords = %d, want 11", d.NumRecords())
	}
	if d.NumAttrs() != 6 {
		t.Fatalf("NumAttrs = %d, want 6", d.NumAttrs())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := d.ValueString(0, 0); got != "IBM" {
		t.Errorf("ValueString(0,0) = %q", got)
	}
	if got := d.ValueString(10, 5); got != "30K-60K" {
		t.Errorf("ValueString(10,5) = %q", got)
	}
	if ai := d.AttrIndex("Gender"); ai != 3 {
		t.Errorf("AttrIndex(Gender) = %d", ai)
	}
	if ai := d.AttrIndex("nope"); ai != -1 {
		t.Errorf("AttrIndex(nope) = %d, want -1", ai)
	}
	// Company dictionary interned in first-seen order.
	comp := d.Attrs[0]
	want := []string{"IBM", "Google", "Microsoft", "Facebook"}
	for i, v := range want {
		if comp.Values[i] != v {
			t.Errorf("Company dict[%d] = %q, want %q", i, comp.Values[i], v)
		}
		if comp.ValueIndex(v) != i {
			t.Errorf("ValueIndex(%q) = %d, want %d", v, comp.ValueIndex(v), i)
		}
	}
	if comp.ValueIndex("Apple") != -1 {
		t.Error("ValueIndex of unknown value must be -1")
	}
}

func TestAddRecordArityError(t *testing.T) {
	b := NewBuilder("x", "a", "b")
	if err := b.AddRecord("1"); err == nil {
		t.Error("short record must error")
	}
	if err := b.AddRecord("1", "2", "3"); err == nil {
		t.Error("long record must error")
	}
}

func TestAddRecordIdx(t *testing.T) {
	b := NewBuilder("x", "a", "b")
	b.AddValue(0, "a0")
	b.AddValue(0, "a1")
	b.AddValue(1, "b0")
	if err := b.AddRecordIdx(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRecordIdx(2, 0); err == nil {
		t.Error("out-of-range value index must error")
	}
	if err := b.AddRecordIdx(0); err == nil {
		t.Error("wrong arity must error")
	}
	d := b.Build()
	if d.ValueString(0, 0) != "a1" || d.ValueString(0, 1) != "b0" {
		t.Errorf("record mismatch: %v", d.Record(0))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := buildSalary(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadCSV("salary", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumRecords() != d.NumRecords() || d2.NumAttrs() != d.NumAttrs() {
		t.Fatalf("round trip shape mismatch: %dx%d vs %dx%d",
			d2.NumRecords(), d2.NumAttrs(), d.NumRecords(), d.NumAttrs())
	}
	for r := 0; r < d.NumRecords(); r++ {
		for a := 0; a < d.NumAttrs(); a++ {
			if d.ValueString(r, a) != d2.ValueString(r, a) {
				t.Fatalf("cell (%d,%d) mismatch: %q vs %q", r, a, d.ValueString(r, a), d2.ValueString(r, a))
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("empty", strings.NewReader("")); err == nil {
		t.Error("empty csv must error")
	}
	if _, err := ReadCSV("ragged", strings.NewReader("a,b\n1,2\n3\n")); err == nil {
		t.Error("ragged csv must error")
	}
	if _, err := LoadCSV("/nonexistent/definitely-missing.csv"); err == nil {
		t.Error("missing file must error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := buildSalary(t)
	d.rows[0] = 99 // out of dictionary range
	if err := d.Validate(); err == nil {
		t.Error("Validate must catch out-of-range value index")
	}

	dup := &Dataset{Name: "dup", Attrs: []*Attribute{{Name: "a"}, {Name: "a"}}}
	if err := dup.Validate(); err == nil {
		t.Error("Validate must catch duplicate attribute names")
	}
	empty := &Dataset{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("Validate must catch zero attributes")
	}
}

func TestCutPointsEqualWidth(t *testing.T) {
	cuts, err := CutPoints([]float64{0, 10}, 5, EqualWidth)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 4, 6, 8, 10}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v", cuts)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
	if BinOf(0, cuts) != 0 || BinOf(1.99, cuts) != 0 || BinOf(2, cuts) != 1 {
		t.Error("BinOf boundaries wrong at low end")
	}
	if BinOf(10, cuts) != 4 {
		t.Errorf("BinOf(max) = %d, want last bin", BinOf(10, cuts))
	}
}

func TestCutPointsEqualFrequency(t *testing.T) {
	vals := []float64{1, 1, 1, 2, 3, 4, 5, 6, 100, 200}
	cuts, err := CutPoints(vals, 2, EqualFrequency)
	if err != nil {
		t.Fatal(err)
	}
	// Two bins should split near the median.
	n0, n1 := 0, 0
	for _, v := range vals {
		if BinOf(v, cuts) == 0 {
			n0++
		} else {
			n1++
		}
	}
	if n0 == 0 || n1 == 0 {
		t.Fatalf("degenerate split: %d/%d (cuts %v)", n0, n1, cuts)
	}
}

func TestCutPointsErrors(t *testing.T) {
	if _, err := CutPoints([]float64{1, 2}, 0, EqualWidth); err == nil {
		t.Error("k=0 must error")
	}
	if _, err := CutPoints(nil, 3, EqualWidth); err == nil {
		t.Error("empty values must error")
	}
	if _, err := CutPoints([]float64{5, 5, 5}, 3, EqualWidth); err == nil {
		t.Error("constant values must error")
	}
	if _, err := CutPoints([]float64{1, 2, 3}, 2, BinningMethod(99)); err == nil {
		t.Error("unknown method must error")
	}
}

func TestDiscretizeColumn(t *testing.T) {
	b := NewBuilder("ages", "age", "label")
	for _, row := range [][]string{{"21", "x"}, {"25", "x"}, {"34", "y"}, {"45", "y"}, {"29", "x"}} {
		if err := b.AddRecord(row...); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	dd, err := DiscretizeColumn(d, 0, 3, EqualWidth)
	if err != nil {
		t.Fatal(err)
	}
	if dd.Attrs[0].Cardinality() != 3 {
		t.Fatalf("discretized cardinality = %d, want 3", dd.Attrs[0].Cardinality())
	}
	// Value order must follow numeric order of intervals.
	if dd.Attrs[0].Values[0] != "21-29" {
		t.Errorf("first interval = %q, want 21-29", dd.Attrs[0].Values[0])
	}
	if dd.ValueString(3, 0) != "37-45" {
		t.Errorf("record 3 bin = %q, want 37-45", dd.ValueString(3, 0))
	}
	if dd.ValueString(0, 1) != "x" {
		t.Error("non-discretized column must be preserved")
	}
	// Non-numeric column errors.
	if _, err := DiscretizeColumn(d, 1, 2, EqualWidth); err == nil {
		t.Error("discretizing a non-numeric column must error")
	}
	if _, err := DiscretizeColumn(d, 7, 2, EqualWidth); err == nil {
		t.Error("attribute index out of range must error")
	}
}

func TestQuickBinOfCoversAllValues(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64()*1000 - 500
		}
		vals[0], vals[1] = -500.5, 500.5 // guarantee spread
		for _, method := range []BinningMethod{EqualWidth, EqualFrequency} {
			k := 1 + r.Intn(10)
			cuts, err := CutPoints(vals, k, method)
			if err != nil {
				return false
			}
			nb := len(cuts) - 1
			for _, v := range vals {
				b := BinOf(v, cuts)
				if b < 0 || b >= nb {
					return false
				}
				// v must lie within its bin (last bin closed above).
				if v < cuts[b] || (v > cuts[b+1] && b != nb-1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
