package repro.core.viewgen

import repro.core.schema.JoinTree

/** One grouping set of an output pass: its keys, the distinct products it
  * sums, and the query outputs decoded from its rows. Each output's group-by
  * attributes are among `keys`; the decoder rolls the set's rows up by them.
  *
  * Two measure terms are one sum when they have the same signature
  * ([[Term]]), the one view merging shares columns by: the products then
  * differ at most in the order of their factors.
  */
final case class OutputSet(keys: Seq[String], sums: Seq[MeasureTerm], outputs: Seq[QueryOutput]) {
  require(outputs.forall(_.query.groupBy.forall(keys.contains)),
    s"an output groups by attributes outside (${keys.mkString(",")})")

  /** Index in `sums` of a term of one of the set's outputs. */
  def sumIndex(t: MeasureTerm): Int = sums.indexWhere(_.sig == t.sig)
}

object OutputSet {
  def apply(keys: Seq[String], outputs: Seq[QueryOutput]): OutputSet =
    OutputSet(keys, outputs.flatMap(_.terms).distinctBy(_.sig), outputs)
}

/** How the engine aggregates one output group: one job over the group's join
  * frame, whose grouping sets are `sets`.
  *
  * The group's distinct group-by sets are taken smallest hint product first,
  * and each is folded into one *cube* set while the hint product over the
  * union U of the folded sets stays at most `bound`: `CubeFraction` of the
  * node's size, and at least 1, so the global set always folds. A hint is
  * `JoinTree.domains` of the attribute; an attribute without one counts as
  * the node's size, or as unbounded when the size is missing. The cube groups
  * by U, and every query of a folded set is rolled up from its rows; a set
  * that does not fold is a grouping set of its own, and the job copies each
  * frame row once per set. The hint product bounds the cube's rows, so the
  * cube has at most one row per ten rows of the node's relation, however
  * many sets fold into it. (A sweep at SF 0.1 chose the fraction: at 1/10 the
  * Favorita Σ batch's 8,712-cell cube folds and CART's 72,000-cell one with
  * a continuous feature does not; each choice was the faster.)
  * A wrong hint only moves sets between the cube and their own copies: every
  * query is a roll-up of sums of integer-valued doubles, exact in any order.
  *
  * @param folded the group-by sets folded into the cube (`sets.head`), in fold
  *               order; empty when none folds
  * @param hint   the hint product over the cube's keys U
  */
final case class OutputPass(sets: Seq[OutputSet], folded: Seq[Seq[String]], hint: Long, bound: Long) {
  /** The group-by sets that are grouping sets of their own. */
  def exploded: Seq[Seq[String]] = sets.drop(if (folded.isEmpty) 0 else 1).map(_.keys)
  /** Output measures: one sum column each before dedup. */
  def measures: Int = sets.map(_.outputs.map(_.terms.size).sum).sum
  /** Sum columns of the job after dedup. */
  def sums: Int = sets.map(_.sums.size).sum
}

object OutputPass {

  /** The cube's bound on its hint product, as a fraction of the rows of its
    * node's relation.
    */
  val CubeFraction = 0.1

  /** The output pass of one output group: `outputs` share their root and
    * incoming views.
    */
  def apply(tree: JoinTree, outputs: Seq[QueryOutput]): OutputPass = {
    require(outputs.nonEmpty, "an output pass needs outputs")
    val size = tree.sizes.get(outputs.head.root)
    val bound = size.fold(1L)(s => (s * CubeFraction).toLong.max(1L))
    def hint(attrs: Iterable[String]): Long = attrs.foldLeft(1L) { (p, a) =>
      val h = tree.domains.get(a).orElse(size.map(_.max(1L))).getOrElse(Long.MaxValue)
      if (p > Long.MaxValue / h) Long.MaxValue else p * h
    }
    val groupBys = outputs.map(_.query.groupBy.sorted).distinct.sortBy(hint)
    val (folded, union) = groupBys.foldLeft((Seq.empty[Seq[String]], Set.empty[String])) {
      case ((fs, u), gb) => if (hint(u ++ gb) <= bound) (fs :+ gb, u ++ gb) else (fs, u)
    }
    def outputsOf(gbs: Seq[Seq[String]]) = outputs.filter(o => gbs.contains(o.query.groupBy.sorted))
    val cube = Option.when(folded.nonEmpty)(OutputSet(union.toSeq.sorted, outputsOf(folded)))
    val own = groupBys.filterNot(folded.contains).map(gb => OutputSet(gb, outputsOf(Seq(gb))))
    OutputPass(cube.toSeq ++ own, folded, hint(union), bound)
  }
}
