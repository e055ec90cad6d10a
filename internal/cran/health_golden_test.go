package cran

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestHealthWireGolden pins the JSON a health probe answers with to
// testdata/health_golden.json. Every Stats field, the portfolio maps
// included, carries a distinct nonzero value, so a renamed, retagged,
// dropped or added field shows in the golden's diff; decoding the golden
// must give back the same Health.
func TestHealthWireGolden(t *testing.T) {
	var n int64
	next := func() int64 { n++; return n }
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			f.SetInt(next() * int64(time.Millisecond))
		case f.CanInt():
			f.SetInt(next())
		case f.CanUint():
			f.SetUint(uint64(next()))
		case f.CanFloat():
			f.SetFloat(float64(next()) + 0.25)
		case f.Kind() == reflect.Map:
			m := reflect.MakeMap(f.Type())
			for _, member := range []string{"cheap", "ttsa"} {
				val := reflect.New(f.Type().Elem()).Elem()
				if val.CanFloat() {
					val.SetFloat(float64(next()) + 0.5)
				} else {
					val.SetUint(uint64(next()))
				}
				m.SetMapIndex(reflect.ValueOf(member), val)
			}
			f.Set(m)
		default:
			t.Fatalf("Stats.%s: no test value for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	h := Health{UptimeS: float64(next()) + 0.75, ActiveConns: int(next()), Stats: st}

	got, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "health_golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/cran -run TestHealthWireGolden -update` to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("health JSON drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	var back Health
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, h) {
		t.Errorf("decoding the golden gave\n%+v\nwant\n%+v", back, h)
	}
}
