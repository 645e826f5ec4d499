package mem

// ScanTotals sums the window scans and scanning wakes of every
// sub-channel. Tests only: the counters are not telemetry.
func (ch *Channel) ScanTotals() (scans, scanWakes int64) {
	for _, s := range ch.subs {
		scans += s.scans
		scanWakes += s.scanWakes
	}
	return scans, scanWakes
}
