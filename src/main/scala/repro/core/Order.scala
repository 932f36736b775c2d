package repro.core

/** Sorting of indices by a primitive key, without boxing. */
object Order {

  /** Indices `0 until keys.length` by descending key, equal keys in ascending
    * index: the order `sortBy(i => -keys(i))` gives, in O(n) passes of an LSD
    * radix sort over the keys' bits.
    */
  def descending(keys: Array[Double]): Array[Int] = {
    val k = new Array[Long](keys.length)
    var i = 0
    while (i < keys.length) {
      // Bits of -key whose unsigned order is java.lang.Double.compare's order.
      val b = java.lang.Double.doubleToLongBits(-keys(i))
      k(i) = (if (b < 0) ~b else b ^ Long.MinValue)
      i += 1
    }
    radix(k)
  }

  /** Indices `0 until keys.length` by ascending key, equal keys in ascending
    * index: the order `sortBy(i => keys(i))` gives, by the same radix sort.
    */
  def ascending(keys: Array[Long]): Array[Int] = {
    val k = new Array[Long](keys.length)
    var i = 0
    // Flipping the sign bit makes the unsigned order the signed one.
    while (i < keys.length) { k(i) = keys(i) ^ Long.MinValue; i += 1 }
    radix(k)
  }

  /** Indices by ascending unsigned key, ties in ascending index. Overwrites `keys`. */
  private def radix(keys: Array[Long]): Array[Int] = {
    val n   = keys.length
    var k   = keys
    var ix  = Array.range(0, n)
    var ix2 = new Array[Int](n)
    var k2  = new Array[Long](n)
    val count = new Array[Int](257)
    var shift = 0
    while (shift < 64) {
      java.util.Arrays.fill(count, 0)
      var i = 0
      while (i < n) { count(((k(i) >>> shift) & 0xff).toInt + 1) += 1; i += 1 }
      // A pass where every key has the same byte would not move anything.
      if (!count.contains(n)) {
        var j = 0
        while (j < 256) { count(j + 1) += count(j); j += 1 }
        i = 0
        // Stable scatter: equal bytes keep their order, so ties stay by index.
        while (i < n) {
          val t = ((k(i) >>> shift) & 0xff).toInt
          k2(count(t)) = k(i)
          ix2(count(t)) = ix(i)
          count(t) += 1
          i += 1
        }
        val tk = k; k = k2; k2 = tk
        val ti = ix; ix = ix2; ix2 = ti
      }
      shift += 8
    }
    ix
  }
}
