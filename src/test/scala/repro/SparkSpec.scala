package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt: the
  * SPARK_DRIVER_MEM environment variable when it is set, else half of
  * physical memory, clamped to 2-8 GB. The session comes from
  * `JobRunner.builder`, so tests run the same static plans as the jobs and
  * the benchmark: adaptive execution and auto-broadcast stay off, shuffles
  * have one partition per core, and every broadcast join is an explicit
  * hint in the program (the smaller side of each join in `LmfaoExec`).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = repro.jobs.JobRunner.builder("repro").getOrCreate()
    // Keep test/bench output readable: task-level INFO noise off.
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that gives the driver's heap and the plan
    // settings every result of the run came from.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"maxHeap=${Runtime.getRuntime.maxMemory >> 20}m " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism} " +
      s"adaptive=${s.conf.get("spark.sql.adaptive.enabled")} " +
      s"shufflePartitions=${s.conf.get("spark.sql.shuffle.partitions")}"
    )
    s
  }
}
