//go:build race

package httpd

// poolAllocSlack: under the race detector sync.Pool randomly drops a
// fraction of Puts (to shake out reuse races), so a read whose answer lives
// in pooled buffers reallocates them on some iterations: the answer and up
// to two buffers, three objects. The slack is per pooled answer and exists
// only in race builds; the plain pins stay exact, and only they pin bytes.
const poolAllocSlack = 3
