//go:build !race

package httpd

// poolAllocSlack widens pool-backed allocation pins under the race
// detector only — see race_on_test.go. Without -race the pins are exact.
const poolAllocSlack = 0
