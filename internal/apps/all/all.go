// Package all registers every evaluated application (Table 1) with
// internal/apps. Import it for its side effect:
//
//	import _ "hawkset/internal/apps/all"
package all

import (
	_ "hawkset/internal/apps/apex"
	_ "hawkset/internal/apps/fastfair"
	_ "hawkset/internal/apps/madfs"
	_ "hawkset/internal/apps/memcachedpm"
	_ "hawkset/internal/apps/part"
	_ "hawkset/internal/apps/pclht"
	_ "hawkset/internal/apps/pmasstree"
	_ "hawkset/internal/apps/turbohash"
	_ "hawkset/internal/apps/wipe"
)
