package repro.core.schema

/** A join tree over a set of relations (LMFAO's "backbone of the plan").
  *
  * Nodes are relations; an (undirected) edge means the two relations are
  * natural-joined on their shared attributes. The tree must be connected,
  * acyclic, and satisfy the running intersection property (every attribute's
  * set of relations forms a connected subtree), which makes directional-view
  * decomposition sound.
  *
  * `sizes` are cardinality hints (paper: "cardinality constraints") consumed
  * by the root-assignment heuristic and by the engine's join strategy (the
  * smaller side of each join is broadcast); they never affect answers. Nor do
  * the relations' declared keys: a broken key leaves every answer exact, but
  * the views it widens or projects then hold more rows than their keys
  * promise.
  *
  * `domains` are per-attribute bounds on the number of distinct values, each
  * at least 1. The engine reads them to decide which grouping sets of an
  * output group it aggregates as one cube ([[repro.core.viewgen.OutputPass]]);
  * like `sizes`, a wrong hint costs time, never answers.
  */
final case class JoinTree(
    relations: Seq[Relation],
    edges: Seq[(String, String)],
    sizes: Map[String, Long] = Map.empty,
    domains: Map[String, Long] = Map.empty,
) {
  require(relations.nonEmpty, "join tree must have at least one relation")
  require(relations.map(_.name).distinct.size == relations.size, "duplicate relation names")

  val relationByName: Map[String, Relation] = relations.map(r => r.name -> r).toMap

  edges.foreach { case (a, b) =>
    require(relationByName.contains(a) && relationByName.contains(b), s"edge ($a,$b) references unknown relation")
    require(a != b, s"self edge on $a")
    require(joinKeys(a, b).nonEmpty, s"edge ($a,$b) has no shared attributes")
  }
  require(edges.size == relations.size - 1, s"a tree over ${relations.size} nodes needs ${relations.size - 1} edges, got ${edges.size}")

  /** Adjacency over the undirected tree. */
  val neighbors: Map[String, Seq[String]] = {
    val m = scala.collection.mutable.Map.empty[String, Vector[String]].withDefaultValue(Vector.empty)
    edges.foreach { case (a, b) => m(a) = m(a) :+ b; m(b) = m(b) :+ a }
    relations.map(r => r.name -> m(r.name)).toMap
  }

  /** Edges (parent, child) in breadth-first order from the first relation,
    * each node's neighbours in edge order: the join order of the baselines
    * and of the oracle's SQL.
    */
  val joinOrder: Seq[(String, String)] = {
    val start = relations.head.name
    val seen = scala.collection.mutable.Set(start)
    val queue = scala.collection.mutable.Queue(start)
    val out = scala.collection.mutable.ArrayBuffer.empty[(String, String)]
    while (queue.nonEmpty) {
      val n = queue.dequeue()
      neighbors(n).foreach { m => if (seen.add(m)) { queue += m; out += (n -> m) } }
    }
    out.toSeq
  }

  // Connectivity (and therefore, with the edge count check, acyclicity).
  require(joinOrder.size == relations.size - 1, "join tree is not connected")

  /** All attributes appearing anywhere in the tree. */
  val allAttrs: Set[String] = relations.flatMap(_.attrs).toSet

  domains.foreach { case (a, n) =>
    require(allAttrs.contains(a), s"domain hint for unknown attribute $a")
    require(n >= 1, s"domain hint for attribute $a is $n; a hint must be at least 1")
  }

  /** Canonical owner of an attribute: the first relation in schema order that
    * contains it. Every unary aggregate factor over the attribute is evaluated
    * exactly once, at its owner node.
    */
  val owner: Map[String, String] =
    allAttrs.map(a => a -> relations.find(_.has(a)).get.name).toMap

  // Running intersection property: the relations holding attribute a form a
  // subtree. In a tree, k nodes do exactly when k - 1 edges join them.
  allAttrs.foreach { a =>
    val holders = relations.filter(_.has(a)).map(_.name).toSet
    require(edges.count { case (x, y) => holders(x) && holders(y) } == holders.size - 1,
      s"running intersection violated for attribute $a (relations ${holders.mkString(",")})")
  }

  /** Natural-join attributes between two adjacent relations. */
  def joinKeys(a: String, b: String): Seq[String] =
    relationByName(a).attrs.filter(relationByName(b).attrSet.contains)

  def sizeOf(name: String): Long = sizes.getOrElse(name, 1L)

  /** Relations on `child`'s side of the (child, parent) edge, child included. */
  def subtreeNodes(child: String, parent: String): Set[String] = {
    require(neighbors(child).contains(parent), s"($child,$parent) is not an edge")
    below(child, Some(parent)).map(_._1).toSet + child
  }

  /** Attributes visible in the subtree on `child`'s side of (child, parent). */
  def subtreeAttrs(child: String, parent: String): Set[String] =
    subtreeNodes(child, parent).flatMap(n => relationByName(n).attrSet)

  /** Attributes on `child`'s side of the (child, parent) edge that the edge's
    * join keys fix: the join keys themselves, plus every attribute of each
    * relation n reached over an edge (n, from) whose declared key lies within
    * joinKeys(n, from), since at most one row of n matches a value of those
    * keys. The walk goes on from such an n to its other neighbours and stops
    * at a relation without such a key.
    */
  def determined(child: String, parent: String): Set[String] = {
    require(neighbors(child).contains(parent), s"($child,$parent) is not an edge")
    def walk(n: String, from: String): Set[String] = {
      val r = relationByName(n)
      if (r.key.isEmpty || !r.key.forall(joinKeys(n, from).contains)) Set.empty
      else r.attrSet ++ neighbors(n).filterNot(_ == from).flatMap(walk(_, n))
    }
    joinKeys(child, parent).toSet ++ walk(child, parent)
  }

  /** Directed edges (child -> parent) in bottom-up order when the tree is
    * rooted at `root`: every edge appears after all edges below it.
    */
  def bottomUpEdges(root: String): Seq[(String, String)] = {
    require(relationByName.contains(root), s"unknown root $root")
    below(root, None)
  }

  /** The edges (child -> parent) below `node` when it is reached from
    * `from`, bottom-up: each neighbour's edges, then its edge into `node`.
    */
  private def below(node: String, from: Option[String]): Seq[(String, String)] =
    neighbors(node).filterNot(from.contains).flatMap(c => below(c, Some(node)) :+ (c -> node))
}
