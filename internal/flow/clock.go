package flow

import "time"

// This file is the package's clock seam — the single place flow touches
// the wall clock: a Collector reads its time through timeNow unless a
// test pins it with SetClock.
var timeNow = time.Now
