package repro.core.schema

/** A base relation in the multi-relational schema.
  *
  * Natural-join semantics: attributes with the same name in two relations are
  * join attributes. `attrs` lists every attribute of the relation in schema
  * order.
  *
  * `key`, when non-empty, declares a unique key: no two rows of the relation
  * agree on all of its attributes. It is a promise about the data, which the
  * planner uses to find attributes that a join key fixes
  * ([[JoinTree.determined]]) and the engine uses to compute a view without
  * grouping; empty means no key is known.
  */
final case class Relation(name: String, attrs: Seq[String], key: Seq[String] = Nil) {
  require(name.nonEmpty, "relation name must be non-empty")
  require(attrs.nonEmpty, s"relation $name must have at least one attribute")
  require(attrs.distinct == attrs, s"relation $name has duplicate attributes")
  require(key.distinct == key, s"relation $name has duplicate key attributes")
  key.foreach(k => require(attrs.contains(k), s"relation $name: key attribute $k is not an attribute"))

  def attrSet: Set[String] = attrs.toSet
  def has(attr: String): Boolean = attrSet.contains(attr)
}
