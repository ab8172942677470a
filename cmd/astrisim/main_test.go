package main

import (
	"testing"

	"astriflash"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		want astriflash.Mode
	}{
		{"dram-only", astriflash.DRAMOnly},
		{"astriflash", astriflash.AstriFlash},
		{"astriflash-ideal", astriflash.AstriFlashIdeal},
		{"astriflash-nops", astriflash.AstriFlashNoPS},
		{"astriflash-nodp", astriflash.AstriFlashNoDP},
		{"os-swap", astriflash.OSSwap},
		{"flash-sync", astriflash.FlashSync},
		{"AstriFlash-noDP", astriflash.AstriFlashNoDP},
	} {
		got, err := parseMode(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("parseMode(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}

	_, err := parseMode("bogus")
	if err == nil {
		t.Fatal("parseMode accepted an unknown name")
	}
	// The names are listed in presentation order, so the message is the
	// same on every run.
	want := `unknown mode "bogus"; one of: dram-only astriflash astriflash-ideal astriflash-nops astriflash-nodp os-swap flash-sync`
	if err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}
