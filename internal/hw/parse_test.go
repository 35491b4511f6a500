package hw

import (
	"testing"
	"testing/quick"
)

func TestParseConfigCompact(t *testing.T) {
	cfg, err := ParseConfig("16/700/925")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Compute: ComputeConfig{CUs: 16, Freq: 700}, Memory: MemConfig{BusFreq: 925}}
	if cfg != want {
		t.Errorf("got %v, want %v", cfg, want)
	}
}

func TestParseConfigDecorated(t *testing.T) {
	cfg, err := ParseConfig("32CU@1000MHz/mem@1375MHz(264GB/s)")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != MaxConfig() {
		t.Errorf("got %v", cfg)
	}
}

func TestParseConfigWhitespace(t *testing.T) {
	cfg, err := ParseConfig("  4 / 300 / 475 ")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != MinConfig() {
		t.Errorf("got %v", cfg)
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, bad := range []string{
		"", "32/1000", "32/1000/1375/0", "a/b/c",
		"33/1000/1375",  // off-grid CUs
		"32/1050/1375",  // off-grid frequency
		"32/1000/500",   // off-grid memory
		"32CU@(900MHz)", // mangled decorated form
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) accepted", bad)
		}
	}
}

// Property: every legal configuration round-trips through its String()
// form.
func TestParseConfigRoundTripProperty(t *testing.T) {
	space := ConfigSpace()
	f := func(idx uint16) bool {
		cfg := space[int(idx)%len(space)]
		back, err := ParseConfig(cfg.String())
		return err == nil && back == cfg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParseConfig feeds arbitrary strings to the config parser, which
// reads untrusted input (the serve API's fixed-policy config, CLI
// flags). Any accepted string must name a legal grid point, and that
// point must round-trip through its String() form.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{
		"16/700/925", " 32 / 1000 / 1375 ", MinConfig().String(), MaxConfig().String(),
		"32CU@1000MHz/mem@1375MHz(264GB/s)", "32CU@(900MHz)", "a/b/c", "", "//", "4/300/-475",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseConfig(s)
		if err != nil {
			return
		}
		if !cfg.Valid() {
			t.Fatalf("ParseConfig(%q) accepted off-grid %+v", s, cfg)
		}
		back, err := ParseConfig(cfg.String())
		if err != nil || back != cfg {
			t.Fatalf("ParseConfig(%q) = %v, which re-parses as %+v, %v", s, cfg, back, err)
		}
	})
}
