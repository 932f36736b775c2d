package perfbench

import repro.core._

/** Output checks run on every operation, restating the contracts the specs
  * assert against Ex-DPC's ground truth.
  */
object Gates {

  /** `None` when `res` meets `algo`'s contract on `in`, else what broke. */
  def check(algo: String, res: DPCResult, labels: Array[Int], in: Input): Option[String] = {
    val t = in.truth
    val n = t.n
    def firstBad(ok: Int => Boolean, what: String): Option[String] =
      (0 until n).find(i => !ok(i)).map(i => s"$what at point $i")
    def sameRho(i: Int): Boolean = java.lang.Double.compare(res.rho(i), t.rho(i)) == 0
    def deltaClose(i: Int): Boolean =
      if (t.delta(i).isInfinity) res.delta(i).isInfinity else math.abs(res.delta(i) - t.delta(i)) < 1e-7

    if (res.n != n || labels.length != n) Some(s"${res.n} densities and ${labels.length} labels for $n points")
    else algo match {
      case "exdpc" =>
        firstBad(i => sameRho(i) && res.depId(i) == t.depId(i) &&
          java.lang.Double.compare(res.delta(i), t.delta(i)) == 0, "differs from the ground-truth run")
      case "scan" | "rtreescan" | "cfsfdpa" =>
        firstBad(sameRho, "rho differs from Ex-DPC").orElse(firstBad(deltaClose, "delta differs from Ex-DPC"))
      case "approxdpc" =>
        val p = in.params
        firstBad(sameRho, "rho differs from Ex-DPC").orElse {
          if (Labels.centers(res, p.rhoMin, p.deltaMin).sameElements(Labels.centers(t, p.rhoMin, p.deltaMin))) None
          else Some("cluster centers differ from Ex-DPC's (Theorem 4)")
        }
      case "sapproxdpc" =>
        if (res.rho.forall(_.isNaN)) Some("no picked points")
        else firstBad(i => res.rho(i).isNaN || sameRho(i), "picked rho differs from Ex-DPC")
          .orElse(firstBad(i => res.rho(i).isNaN || res.delta(i) >= t.delta(i) - 1e-9,
            "picked delta below Ex-DPC's"))
      case "lshddp" =>
        val roots = res.depId.count(_ < 0)
        if (roots != 1) Some(s"$roots dependency roots")
        else firstBad(i => res.depId(i) < 0 || res.rho(res.depId(i)) > res.rho(i), "dependent point not denser")
    }
  }
}
