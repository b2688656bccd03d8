package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// On a shared virtual machine the hypervisor at times runs other guests
// on this guest's vCPUs, which Linux counts as steal time. On a 2-vCPU
// Xeon guest, serve-hit answered 576–707 req/s in minutes with 15–19% of
// cpu time stolen, against 838–920 req/s with under 5% stolen, so a
// measurement taken then times the host, not the program. Every timed
// unit (a closed-loop window, a sweep, a set-up launch) therefore records
// the share of cpu time stolen during it; a unit above stealMax is
// invalid and left out of the reported figures, and the run measures on
// until it has its planned amount of valid units: windows and sweeps for
// up to stretch times the planned time, set-up launches up to twice the
// planned count.
const (
	stealMax = 0.05
	stretch  = 1.75
)

// stealClock is one reading of the steal and total jiffies of all cpus.
type stealClock struct{ steal, total uint64 }

// readSteal reads the aggregate cpu line of /proc/stat. Where it cannot
// be read, every reading is zero and no unit is ever invalid.
func readSteal() stealClock {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealClock{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return stealClock{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealClock{}
	}
	var c stealClock
	// user nice system idle iowait irq softirq steal: guest time is
	// already inside user and nice.
	for i, v := range fields[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return stealClock{}
		}
		c.total += n
		if i == 7 {
			c.steal = n
		}
	}
	return c
}

// stolenSince is the share of cpu time stolen between the reading c and
// now.
func (c stealClock) stolenSince() float64 {
	now := readSteal()
	if now.total <= c.total {
		return 0
	}
	return float64(now.steal-c.steal) / float64(now.total-c.total)
}
